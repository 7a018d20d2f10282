// Package hotfix is the hotpathalloc fixture: each function exercises
// one rule, with // want assertions for flagged constructs and bare
// comments for the deliberately-clean ones. Wants that quote "escapes
// to heap" or "moved to heap" come from the compiler's escape analysis.
package hotfix

import "fmt"

type box struct{ v int }

func sink(v any) { _ = v }

// SeededSprintf is the canonical seeded regression: a fmt call in a
// marked hot function.
//
//repro:hotpath
func SeededSprintf(id int) {
	msg := fmt.Sprintf("ref %d", id) // want `call to fmt\.Sprintf allocates` `id escapes to heap`
	_ = msg
}

//repro:hotpath
func Concat(a, b string) string {
	return a + b // want `a \+ b escapes to heap`
}

//repro:hotpath
func ConstConcat() string {
	return "a" + "b" // constant-folded: clean
}

//repro:hotpath
func Convert(b []byte) string {
	return string(b) // want `string\(b\) escapes to heap`
}

//repro:hotpath
func MapWrite(m map[int]int) {
	m[1] = 2 // want `map write may allocate \(grow/insert\)`
}

//repro:hotpath
func MapInc(m map[int]int) {
	m[1]++ // want `map write may allocate \(grow/insert\)`
}

//repro:hotpath
func SelfAppend(buf []byte, b byte) []byte {
	buf = append(buf, b) // self-append idiom: clean
	return buf
}

//repro:hotpath
func FreshAppend(src []byte) []byte {
	out := append([]byte(nil), src...) // want `append outside the self-append idiom`
	return out
}

//repro:hotpath
func LocalScratch() int {
	buf := make([]byte, 32) // constant-size, never escapes: clean
	for i := range buf {
		buf[i] = byte(i)
	}
	return len(buf)
}

//repro:hotpath
func EscapingMake() []byte {
	buf := make([]byte, 32) // want `make\(\[\]byte, 32\) escapes to heap`
	return buf
}

//repro:hotpath
func DynamicMake(n int) {
	buf := make([]byte, n) // want `make\(\[\]byte, n\) escapes to heap`
	_ = buf
}

//repro:hotpath
func NewEscapes() *box {
	return new(box) // want `new\(box\) escapes to heap`
}

//repro:hotpath
func PtrLit() *box {
	return &box{v: 1} // want `&box\{\.\.\.\} escapes to heap`
}

//repro:hotpath
func ValueLit() int {
	b := box{v: 2} // value composite literal: clean
	return b.v
}

//repro:hotpath
func SliceLit() []int {
	return []int{1, 2, 3} // want `\[\]int\{\.\.\.\} escapes to heap`
}

//repro:hotpath
func MapLit() {
	m := map[int]int{} // never escapes, so it lives on the stack: clean
	_ = m
}

//repro:hotpath
func Boxes(n int) {
	sink(n) // sink does not retain v, so n is boxed on the stack: clean
}

//repro:hotpath
func NoBoxPointer(p *box) {
	sink(p) // pointer-shaped values fit the interface word: clean
}

//repro:hotpath
func ConstBox() {
	sink(42) // constant conversions are statically allocated: clean
}

//repro:hotpath
func ConstResult() any {
	return 42 // escapes, but a constant's box is read-only static data: clean
}

//repro:hotpath
func BoxAssign(n int) {
	var v any
	v = n // v never escapes, so the box lives on the stack: clean
	_ = v
}

//repro:hotpath
func BoxReturn(n int) any {
	return n // want `n escapes to heap`
}

//repro:hotpath
func CapturingClosure(n int) func() int {
	f := func() int { return n } // want `func literal escapes to heap \(captures n\)`
	return f
}

//repro:hotpath
func StaticClosure() func() int {
	f := func() int { return 7 } // non-capturing closures are static: clean
	return f
}

// Whiten is the DS5240 shape: a stack array whitened and passed, sliced,
// to an interface method. The compiler cannot see the callee, so the
// array moves to the heap on every call.
//
//repro:hotpath
func Whiten(b block, dst, src []byte, tweak uint64) {
	var tmp [8]byte // want `moved to heap: tmp`
	for i := range tmp {
		tmp[i] = src[i] ^ byte(tweak>>(8*i))
	}
	b.Encrypt(dst, tmp[:])
}

type block interface{ Encrypt(dst, src []byte) }

//repro:hotpath
func Spawns() {
	go func() {}() // want `go statement allocates a goroutine`
}

//repro:hotpath
func DeferLoop(fns []func()) {
	for _, f := range fns {
		defer f() // want `defer inside a loop allocates per iteration`
	}
}

//repro:hotpath
func DeferOnce(f func()) {
	defer f() // single defer outside loops is open-coded: clean
}

//repro:hotpath
func Assert(ok bool) {
	if !ok {
		panic(fmt.Sprintf("broken invariant %v", ok)) // assertion path: exempt
	}
}

// Root demonstrates propagation: helper is unmarked but reachable.
//
//repro:hotpath
func Root(m map[string]int) int {
	return helper(m)
}

func helper(m map[string]int) int {
	m["k"] = 1 // want `map write may allocate \(grow/insert\) \(reached from hotfix\.Root\)`
	return len(m)
}

// Inlined calls fresh, which the compiler inlines: its make is
// reported at this call site as well, but flagged only at its own line.
//
//repro:hotpath
func Inlined() []byte {
	return fresh() // the inlined copy of fresh's make: clean here
}

func fresh() []byte {
	return make([]byte, 16) // want `make\(\[\]byte, 16\) escapes to heap \(reached from hotfix\.Inlined\)`
}

//repro:hotpath
func Allowed(m map[string]int) {
	m["warm"] = 1 //repro:allow steady-state writes hit existing keys
}

type iface interface{ Do() }

//repro:hotpath
func DynCall(i iface) {
	i.Do() // no in-module implementer: class-hierarchy resolution yields no edges here (see shardfix/devirtfix for the resolved cases)
}
