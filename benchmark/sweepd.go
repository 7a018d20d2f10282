package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/serve"
)

// clients is the sweepd session's concurrency: one process, two closed-
// loop clients on their own connections, against two server workers.
const clients = 2

// sweepOp is one client request: a submit of spec, or (spec nil) a
// refetch of the CSV of the client's earlier submit number refetch.
type sweepOp struct {
	spec    *campaign.Spec
	refetch int
}

// sweepPlan draws the clients' request sequences from seed: submits
// specs in all, dealt alternately to the clients, each of 2 distinct
// engines, 1 authenticator, 1 workload and 1 trace length, and each
// followed, with probability 1/3, by a refetch of one of that client's
// earlier sweeps. A client refetches only its own sweeps, which are
// finished by then.
func sweepPlan(seed int64, submits int, refs []int) [clients][]sweepOp {
	var engines []string
	for _, e := range core.Survey() {
		engines = append(engines, e.Key)
	}
	auths := []string{"none", "ctree"}
	wls := campaign.WorkloadNames()
	var plan [clients][]sweepOp
	for c := range plan {
		rng := rand.New(rand.NewSource(seed*clients + int64(c)))
		done := 0
		for i := c; i < submits; i += clients {
			e := rng.Perm(len(engines))
			plan[c] = append(plan[c], sweepOp{spec: &campaign.Spec{
				Engines:   []string{engines[e[0]], engines[e[1]]},
				Auths:     []string{auths[rng.Intn(len(auths))]},
				Workloads: []string{wls[rng.Intn(len(wls))]},
				Refs:      []int{refs[rng.Intn(len(refs))]},
			}})
			done++
			if rng.Intn(3) == 0 {
				plan[c] = append(plan[c], sweepOp{refetch: rng.Intn(done)})
			}
		}
	}
	return plan
}

// submitOrder lists the plan's submitted specs interleaved across
// clients, the order a serial replay runs them in.
func submitOrder(plan [clients][]sweepOp) []*campaign.Spec {
	var per [clients][]*campaign.Spec
	for c, ops := range plan {
		for _, op := range ops {
			if op.spec != nil {
				per[c] = append(per[c], op.spec)
			}
		}
	}
	var out []*campaign.Spec
	for i := 0; len(out) < len(per[0])+len(per[1]); i++ {
		for c := range per {
			if i < len(per[c]) {
				out = append(out, per[c][i])
			}
		}
	}
	return out
}

func specKey(spec *campaign.Spec) string {
	js, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a Spec is plain data
	}
	return string(js)
}

// sweepServer is an in-process sweep service behind a loopback listener.
type sweepServer struct {
	srv *serve.Server
	ts  *httptest.Server
	hc  *http.Client
}

func startServer() (*sweepServer, error) {
	srv := serve.New(serve.Config{Workers: clients})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &sweepServer{
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients,
		}},
	}, nil
}

func (s *sweepServer) close() {
	s.hc.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// do sends one request and returns the body of a 2xx response.
func (s *sweepServer) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// submitted is one finished submit or refetch as a client saw it.
type submitted struct {
	spec   *campaign.Spec // what was submitted
	id     string         // the submitted sweep's id
	target int            // a refetch's index in the client's submits
	csv    []byte
	err    error
}

// session is what one closed-loop session measured and received.
type session struct {
	wall     time.Duration
	submitMS []float64
	// phaseMS holds post, stream, report and refetch latencies when the
	// session was timed by phase.
	phaseMS [4][]float64
	// subs and refetches hold each client's results in request order;
	// next is each client's position in the plan.
	subs, refetches [clients][]submitted
	next            [clients]int
	// A client's request i is due gap·i after start, and goes out then
	// or when the client's previous request returns, whichever is later.
	// A zero gap sends every request as soon as the previous returns.
	start time.Time
	gap   time.Duration
}

// run continues sess along plan, one goroutine per client, and waits
// for both: each client stops at the end of its plan or, when until is
// not zero, at its first request due at or after until. A submit is
// POST /sweeps, a drain of the NDJSON result stream and GET
// ?format=csv; phases also keeps each step's latency.
func (s *sweepServer) run(sess *session, plan [clients][]sweepOp, until time.Time, phases bool) {
	var lat [clients][]float64
	var ph [clients][4][]float64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ; sess.next[c] < len(plan[c]); sess.next[c]++ {
				due := sess.start.Add(time.Duration(sess.next[c]) * sess.gap)
				if !until.IsZero() && !due.Before(until) {
					break
				}
				time.Sleep(time.Until(due))
				op := plan[c][sess.next[c]]
				if op.spec == nil {
					target := sess.subs[c][op.refetch]
					t := time.Now()
					csv, err := s.do(http.MethodGet, "/sweeps/"+target.id+"/result?format=csv", nil)
					if phases && err == nil {
						ph[c][3] = append(ph[c][3], ms(time.Since(t)))
					}
					sess.refetches[c] = append(sess.refetches[c], submitted{target: op.refetch, csv: csv, err: err})
					continue
				}
				sub, t := s.submit(op.spec)
				sess.subs[c] = append(sess.subs[c], sub)
				if sub.err != nil {
					continue
				}
				lat[c] = append(lat[c], t[0])
				if phases {
					for i := 0; i < 3; i++ {
						ph[c][i] = append(ph[c][i], t[i+1])
					}
				}
			}
		}()
	}
	wg.Wait()
	sess.wall += time.Since(t0)
	for c := range lat {
		sess.submitMS = append(sess.submitMS, lat[c]...)
		for i := range ph[c] {
			sess.phaseMS[i] = append(sess.phaseMS[i], ph[c][i]...)
		}
	}
}

// submit runs one submit and returns its total, post, stream and
// report latencies, in ms.
func (s *sweepServer) submit(spec *campaign.Spec) (submitted, [4]float64) {
	sub := submitted{spec: spec}
	t0 := time.Now()
	status, err := s.do(http.MethodPost, "/sweeps", []byte(specKey(spec)))
	t1 := time.Now()
	if err == nil {
		var st serve.Status
		if err = json.Unmarshal(status, &st); err == nil {
			sub.id = st.ID
		}
	}
	var rows []byte
	if err == nil {
		rows, err = s.do(http.MethodGet, "/sweeps/"+sub.id+"/results", nil)
	}
	t2 := time.Now()
	if err == nil {
		filled := *spec // Size fills the defaults in; keep the plan's spec as drawn
		if n := bytes.Count(rows, []byte("\n")); n != filled.Size() {
			err = fmt.Errorf("sweep %s streamed %d rows, want %d", sub.id, n, filled.Size())
		}
	}
	if err == nil {
		sub.csv, err = s.do(http.MethodGet, "/sweeps/"+sub.id+"/result?format=csv", nil)
	}
	t3 := time.Now()
	sub.err = err
	return sub, [4]float64{ms(t3.Sub(t0)), ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t2))}
}

// replay runs spec through the sweep CLI's runner on store, one task at
// a time, and returns the CSV the CLI prints for it: Run(1) is Plan
// followed by Exec of each task in order, and a result depends only on
// its grid point, so sharing store across specs changes no byte.
// observe, when non-nil, receives each Exec's duration and whether it
// simulated rather than reading the store.
func replay(spec *campaign.Spec, store *campaign.Store, observe func(d time.Duration, fresh bool)) ([]byte, error) {
	r, err := campaign.NewRunnerWith(*spec, store)
	if err != nil {
		return nil, err
	}
	tasks := r.Plan()
	res := make([]campaign.Result, len(tasks))
	for i, t := range tasks {
		runs := store.ResultRuns()
		t0 := time.Now()
		res[i] = r.Exec(t)
		if observe != nil {
			observe(time.Since(t0), store.ResultRuns() > runs)
		}
	}
	var buf bytes.Buffer
	err = campaign.EmitCSV(&buf, &campaign.Report{Spec: r.Spec(), Results: res, Summary: campaign.Summarize(res)})
	return buf.Bytes(), err
}

// expect fills the oracle with the CLI's CSV for every spec the session
// submitted that it lacks, replaying distinct specs on workers
// goroutines over one private store.
func (b *bench) expect(sess *session, workers int) {
	var todo []*campaign.Spec
	for _, subs := range sess.subs {
		for _, sub := range subs {
			key := specKey(sub.spec)
			if _, ok := b.oracle[key]; !ok {
				b.oracle[key] = nil
				todo = append(todo, sub.spec)
			}
		}
	}
	store := campaign.NewStore()
	csvs := make([][]byte, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				csvs[i], errs[i] = replay(todo[i], store, nil)
			}
		}()
	}
	wg.Wait()
	for i, spec := range todo {
		if errs[i] != nil {
			b.op(fmt.Errorf("replaying %s: %w", specKey(spec), errs[i]))
		}
		b.oracle[specKey(spec)] = csvs[i]
	}
}

// verify counts every request of the session as an op: it fails on a
// transport error or non-2xx response, or on a CSV that differs from
// the CLI's for the same spec.
func (b *bench) verify(sess *session) {
	for c := range sess.subs {
		for _, sub := range sess.subs[c] {
			err := sub.err
			if err == nil && !bytes.Equal(sub.csv, b.oracle[specKey(sub.spec)]) {
				err = fmt.Errorf("sweep %s: server CSV differs from the CLI's for %s", sub.id, specKey(sub.spec))
			}
			b.op(err)
		}
		for _, ref := range sess.refetches[c] {
			err := ref.err
			target := sess.subs[c][ref.target]
			if err == nil && !bytes.Equal(ref.csv, b.oracle[specKey(target.spec)]) {
				err = fmt.Errorf("refetch of sweep %s: CSV differs from the CLI's", target.id)
			}
			b.op(err)
		}
	}
}
