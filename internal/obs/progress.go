package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// progressUnit names the work unit Done/Total count: simulated
// references.
const progressUnit = "refs"

// ProgressSample is one reading of the quantity a Progress reporter
// tracks. Done/Total are work units (progressUnit);
// Total 0 means the goal is unknown and percent/ETA are omitted.
// TasksDone/TasksTotal are the coarser task-level view (0/0 to omit),
// and Note is free-form trailing context (memo hits, busy workers).
type ProgressSample struct {
	Done, Total           uint64
	TasksDone, TasksTotal uint64
	Note                  string
}

// ProgressConfig configures a Progress reporter.
type ProgressConfig struct {
	// W receives the progress lines — stderr for CLIs, never the
	// result stream: progress must not perturb byte-identical stdout.
	W io.Writer
	// Interval is the emission period (default 1s).
	Interval time.Duration
	// JSON switches from the human line to one JSON object per line.
	JSON bool
	// Sample is polled at each tick. It must be safe to call from the
	// reporter's goroutine — reading obs counters qualifies.
	Sample func() ProgressSample
}

// Progress periodically samples and prints campaign progress with
// throughput and ETA. It runs on its own goroutine, far from the hot
// path: the simulator only bumps counters, the reporter does the
// formatting (and its allocations) at human timescales.
type Progress struct {
	cfg      ProgressConfig
	start    time.Time
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// last tick state for instantaneous rate
	lastDone uint64
	lastAt   time.Time
}

// StartProgress begins periodic reporting and returns the reporter;
// call Stop to emit the final line and release the goroutine.
func StartProgress(cfg ProgressConfig) *Progress {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	now := time.Now()
	p := &Progress{
		cfg:    cfg,
		start:  now,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		lastAt: now,
	}
	go p.loop()
	return p
}

func (p *Progress) loop() {
	defer close(p.done)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.emit(false)
		case <-p.stop:
			p.emit(true)
			return
		}
	}
}

// Stop emits a final line and waits for the reporter to exit. Safe to
// call more than once.
func (p *Progress) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// progressLine is the JSON shape of one emission (schema documented in
// DESIGN.md §8).
type progressLine struct {
	ElapsedS   float64 `json:"elapsed_s"`
	Done       uint64  `json:"done"`
	Total      uint64  `json:"total,omitempty"`
	Unit       string  `json:"unit"`
	RatePerSec float64 `json:"rate_per_sec"`
	EtaS       float64 `json:"eta_s,omitempty"`
	TasksDone  uint64  `json:"tasks_done,omitempty"`
	TasksTotal uint64  `json:"tasks_total,omitempty"`
	Note       string  `json:"note,omitempty"`
	Final      bool    `json:"final,omitempty"`
}

func (p *Progress) emit(final bool) {
	s := p.cfg.Sample()
	now := time.Now()
	elapsed := now.Sub(p.start).Seconds()

	// Cumulative rate drives the ETA (stable); the displayed rate is
	// the instantaneous one (informative) unless the window is empty.
	var cumRate, instRate float64
	if elapsed > 0 {
		cumRate = float64(s.Done) / elapsed
	}
	if dt := now.Sub(p.lastAt).Seconds(); dt > 0 && s.Done >= p.lastDone {
		instRate = float64(s.Done-p.lastDone) / dt
	}
	if instRate == 0 {
		instRate = cumRate
	}
	p.lastDone, p.lastAt = s.Done, now

	var eta float64
	if s.Total > s.Done && cumRate > 0 {
		eta = float64(s.Total-s.Done) / cumRate
	}

	if p.cfg.JSON {
		line := progressLine{
			ElapsedS: round2(elapsed), Done: s.Done, Total: s.Total,
			Unit: progressUnit, RatePerSec: round2(instRate), EtaS: round2(eta),
			TasksDone: s.TasksDone, TasksTotal: s.TasksTotal,
			Note: s.Note, Final: final,
		}
		b, err := json.Marshal(line)
		if err != nil {
			return
		}
		fmt.Fprintf(p.cfg.W, "%s\n", b)
		return
	}

	var b []byte
	b = append(b, "progress: "...)
	b = append(b, siCount(s.Done)...)
	if s.Total > 0 {
		b = append(b, '/')
		b = append(b, siCount(s.Total)...)
	}
	b = append(b, ' ')
	b = append(b, progressUnit...)
	if s.Total > 0 {
		b = append(b, fmt.Sprintf(" (%.1f%%)", 100*float64(s.Done)/float64(s.Total))...)
	}
	b = append(b, fmt.Sprintf("  %s %s/s", siCount(uint64(instRate)), progressUnit)...)
	if eta > 0 && !final {
		b = append(b, fmt.Sprintf("  eta %s", time.Duration(eta*float64(time.Second)).Round(time.Second))...)
	}
	if s.TasksTotal > 0 {
		b = append(b, fmt.Sprintf("  tasks %d/%d", s.TasksDone, s.TasksTotal)...)
	}
	if s.Note != "" {
		b = append(b, "  "...)
		b = append(b, s.Note...)
	}
	if final {
		b = append(b, fmt.Sprintf("  done in %s", time.Duration(elapsed*float64(time.Second)).Round(time.Millisecond))...)
	}
	b = append(b, '\n')
	p.cfg.W.Write(b)
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// siCount renders a count with a binary-free SI suffix (12.3M) — the
// reading a human wants from a refs counter.
func siCount(n uint64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}
