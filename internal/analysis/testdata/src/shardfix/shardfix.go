// Package shardfix is the determinism fixture for campaign-task code:
// shared package-level state, clock/environment reads, host-identity
// reads, global RNG — and the devirtualization cases the whole-program
// graph must resolve (interface dispatch with two implementers, a
// function value stored in a struct field, a method value, and a
// reflect call the graph must surface as a blind spot rather than
// silently skip).
package shardfix

import (
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"time"
)

var sharedCounter int
var sharedTable = map[string]int{}

//repro:deterministic
func WritesShared() {
	sharedCounter++      // want `package-level state written \(sharedCounter\): concurrent tasks must not share mutable state`
	sharedTable["k"] = 1 // want `package-level state written \(sharedTable\)`
}

//repro:deterministic
func ReadsClock() int64 {
	return time.Now().UnixNano() // want `call to time\.Now reads the wall clock$`
}

//repro:deterministic
func ReadsEnv() string {
	return os.Getenv("SHARD") // want `call to os\.Getenv reads the environment`
}

//repro:deterministic
func HostParallelism() int {
	return runtime.GOMAXPROCS(0) // want `call to runtime\.GOMAXPROCS reads host parallelism`
}

//repro:deterministic
func GoroutineIdentity() int {
	return runtime.NumGoroutine() // want `call to runtime\.NumGoroutine reads goroutine identity`
}

//repro:deterministic
func GlobalRNG() int {
	return rand.Intn(6) // want `global math/rand\.Intn shares seed state across the process`
}

//repro:deterministic
func SeededRNG(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // seeded from the task: clean
	return r.Intn(6)
}

//repro:deterministic
func LocalState() int {
	local := map[string]int{}
	local["k"] = 1 // local map: clean
	return local["k"]
}

// worker has two in-module implementers; a call through the interface
// must gain an edge to both, flagging only the dirty body.
type worker interface{ work() }

type cleanWorker struct{ n int }

func (w *cleanWorker) work() { w.n++ }

type dirtyWorker struct{}

func (dirtyWorker) work() {
	sharedCounter++ // want `package-level state written \(sharedCounter\).*reached from shardfix\.IfaceDispatch`
}

//repro:deterministic
func IfaceDispatch(w worker) {
	w.work() // devirtualizes to both implementers; no marker on either
}

// holder stores a function value in a struct field; calling through the
// field must resolve to everything ever assigned into it.
type holder struct{ fn func() }

func dirtyFn() {
	sharedTable["x"] = 2 // want `package-level state written \(sharedTable\).*reached from shardfix\.FieldFuncValue`
}

//repro:deterministic
func FieldFuncValue() {
	h := holder{fn: dirtyFn}
	h.fn()
}

// methodValued binds a method value to a variable; the call through the
// variable must resolve to the method body.
func (w *cleanWorker) tamper() {
	sharedCounter = 7 // want `package-level state written \(sharedCounter\).*reached from shardfix\.MethodValue`
}

//repro:deterministic
func MethodValue(w *cleanWorker) {
	f := w.tamper
	f()
}

//repro:deterministic
func Reflective(v reflect.Value) {
	v.Call(nil) // want `call through reflect cannot be devirtualized`
}
