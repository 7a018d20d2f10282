package products

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/crypto/des"
	"repro/internal/edu"
)

// roundtripLine checks EncryptLine/DecryptLine inversion across
// addresses for any engine.
func roundtripLine(t *testing.T, e edu.Engine, lineSize int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		addr := uint64(rng.Intn(1<<16)) &^ uint64(lineSize-1)
		line := make([]byte, lineSize)
		rng.Read(line)
		ct := make([]byte, lineSize)
		e.EncryptLine(addr, ct, line)
		if bytes.Equal(ct, line) {
			t.Fatalf("%s: line not transformed", e.Name())
		}
		back := make([]byte, lineSize)
		e.DecryptLine(addr, back, ct)
		if !bytes.Equal(back, line) {
			t.Fatalf("%s: roundtrip failed at %#x", e.Name(), addr)
		}
	}
}

func TestAllEnginesRoundtripAndIdentity(t *testing.T) {
	xom, err := XOM(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	aegis, err := AEGIS(make([]byte, 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := NewGeneralInstrument(make([]byte, 24))
	if err != nil {
		t.Fatal(err)
	}
	best, err := NewBest(make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDS5002(make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	d4, err := NewDS5240(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	vlsi, err := NewVLSI(make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}

	engines := []edu.Engine{xom, aegis, gi, best, d2, d4, vlsi}
	seenGates := map[int]bool{}
	for _, e := range engines {
		roundtripLine(t, e, 32)
		if e.Name() == "" {
			t.Error("engine with empty name")
		}
		if e.Gates() <= 0 {
			t.Errorf("%s: no area estimate", e.Name())
		}
		seenGates[e.Gates()] = true
	}
	if len(seenGates) < 5 {
		t.Error("gate estimates suspiciously uniform")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := XOM(make([]byte, 5)); err == nil {
		t.Error("XOM bad key accepted")
	}
	if _, err := AEGIS(make([]byte, 5), 0); err == nil {
		t.Error("AEGIS bad key accepted")
	}
	if _, err := NewGeneralInstrument(make([]byte, 5)); err == nil {
		t.Error("GI bad DES key accepted")
	}
	if _, err := NewBest(make([]byte, 5)); err == nil {
		t.Error("Best bad key accepted")
	}
	if _, err := NewDS5002(make([]byte, 5)); err == nil {
		t.Error("DS5002 bad key accepted")
	}
	if _, err := NewDS5240(make([]byte, 5)); err == nil {
		t.Error("DS5240 bad key accepted")
	}
	if _, err := NewVLSI(make([]byte, 5)); err == nil {
		t.Error("VLSI bad key accepted")
	}
}

func TestAegisQuotedParameters(t *testing.T) {
	e, _ := AEGIS(make([]byte, 16), 1)
	if e.Gates() != 300_000 {
		t.Errorf("AEGIS gates = %d, want the survey's 300,000", e.Gates())
	}
}

// XOM's quoted numbers: 14-cycle latency. A single-block read on an
// instantaneous bus shows exactly the pipeline fill.
func TestXomQuotedLatency(t *testing.T) {
	e, _ := XOM(make([]byte, 16))
	if got := e.ReadExtraCycles(0, 16, 0); got != 14 {
		t.Errorf("XOM single-block latency = %d, want 14", got)
	}
	// Critical-word-first: a long line costs no more than one pipeline
	// fill on the read path (throughput 1/cycle absorbs the rest; the
	// full-drain behaviour is exercised by PipelineTiming's own tests).
	if got := e.ReadExtraCycles(0, 64*16, 0); got != 14 {
		t.Errorf("XOM long-line read = %d, want 14", got)
	}
	// The write path does drain the pipeline: 14 + 63 for 64 blocks.
	if got := e.WriteExtraCycles(0, 64*16); got != 14+63 {
		t.Errorf("XOM burst write = %d, want 77", got)
	}
}

func TestGIChainRestartPenalty(t *testing.T) {
	g, _ := NewGeneralInstrument(make([]byte, 24))
	const line = 32
	transfer := uint64(20)
	first := g.ReadExtraCycles(0x0000, line, transfer) // random (cold)
	seq := g.ReadExtraCycles(0x0020, line, transfer)   // sequential
	jump := g.ReadExtraCycles(0x8000, line, transfer)  // random
	// Four serial 48-cycle blocks; a random fill also restarts the chain:
	// one more block time plus a quarter of the transfer.
	if first != 4*48+48+5 || seq != 4*48 || jump != first {
		t.Errorf("fill extras cold/sequential/jump = %d/%d/%d, want 245/192/245", first, seq, jump)
	}
	// Writes pay CBC + MAC serialization.
	if g.WriteExtraCycles(0, line) != 2*4*48 {
		t.Errorf("GI write cost = %d", g.WriteExtraCycles(0, line))
	}
	if !g.NeedsRMW(4) || g.NeedsRMW(8) {
		t.Error("GI RMW predicate wrong")
	}
}

// GI's CBC-MAC is modelled by its cost alone: the write path pays the
// MAC pass on top of the CBC pass.
func TestGIMAC(t *testing.T) {
	g, err := NewGeneralInstrument(make([]byte, 24))
	if err != nil {
		t.Fatal(err)
	}
	const line = 32
	cbcPass := uint64(line / des.BlockSize * g.timing.Latency)
	if got := g.WriteExtraCycles(0, line); got != 2*cbcPass {
		t.Errorf("GI write = %d cycles, want CBC + MAC passes = %d", got, 2*cbcPass)
	}
	if g.Gates() != GIGates {
		t.Errorf("GI gates = %d, want %d", g.Gates(), GIGates)
	}
}

func TestDS5002ByteGranularity(t *testing.T) {
	e, _ := NewDS5002(make([]byte, 8))
	if e.BlockBytes() != 1 || e.NeedsRMW(1) {
		t.Error("DS5002 must be byte-granular")
	}
	if e.ReadExtraCycles(0, 32, 20) != 1 || e.WriteExtraCycles(0, 32) != 1 {
		t.Error("DS5002 combinational costs wrong")
	}
	if e.d == nil {
		t.Error("DS5002 engine has no modeled part")
	}
}

func TestDS5240IterativeCost(t *testing.T) {
	des1, _ := NewDS5240(make([]byte, 8))  // single DES: 16 rounds
	tdes, _ := NewDS5240(make([]byte, 24)) // 3-DES: 48 rounds
	a := des1.ReadExtraCycles(0, 32, 20)
	b := tdes.ReadExtraCycles(0, 32, 20)
	if b <= a {
		t.Errorf("3-DES (%d) should cost more than DES (%d)", b, a)
	}
	if des1.WriteExtraCycles(0, 32) != 4*16 || tdes.WriteExtraCycles(0, 32) != 4*48 {
		t.Error("DS5240 write costs wrong")
	}
	if !tdes.NeedsRMW(4) || tdes.NeedsRMW(8) {
		t.Error("DS5240 RMW predicate wrong")
	}
}

// VLSI: page-resident fills are free, page faults pay the page
// decipherment, and the LRU page buffer works.
func TestVLSIPageBuffer(t *testing.T) {
	v, _ := NewVLSI(make([]byte, 8))
	fault := v.ReadExtraCycles(0x0000, 32, 20)
	if fault == 0 {
		t.Error("first touch should fault")
	}
	hit := v.ReadExtraCycles(0x0040, 32, 20) // same 4 KiB page
	if hit != 0 {
		t.Errorf("resident page fill cost %d, want 0", hit)
	}
	// Pages 1..vlsiPages fault in; the last one evicts page 0, the
	// least recently used.
	for p := uint64(1); p <= vlsiPages; p++ {
		v.ReadExtraCycles(p<<vlsiPageBits, 32, 20)
	}
	if got := v.ReadExtraCycles(0x0000, 32, 20); got == 0 {
		t.Error("evicted page should fault again")
	}
	if v.PageFaults != vlsiPages+2 || v.PageHits != 1 {
		t.Errorf("fault accounting: faults=%d hits=%d", v.PageFaults, v.PageHits)
	}
	if want := float64(vlsiPages+2) / float64(vlsiPages+3); v.PageFaultRate() != want {
		t.Errorf("fault rate %v, want %v", v.PageFaultRate(), want)
	}
	if v.WriteExtraCycles(0, 32) != 0 || v.NeedsRMW(1) {
		t.Error("VLSI internal-buffer writes should be free of RMW")
	}
}

func TestBestEngineCosts(t *testing.T) {
	b, _ := NewBest(make([]byte, 8))
	if b.ReadExtraCycles(0, 32, 20) != 2 || b.WriteExtraCycles(0, 32) != 2 {
		t.Error("Best timing wrong")
	}
	if !b.NeedsRMW(4) || b.NeedsRMW(8) {
		t.Error("Best RMW predicate wrong")
	}
	if b.BlockBytes() != 8 {
		t.Error("Best granule wrong")
	}
}
