package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The experiment tests assert SHAPE, not absolute numbers: who wins, by
// roughly what factor, where the crossovers fall — the reproduction
// standard DESIGN.md sets. A short trace keeps them fast.
const testRefs = 20000

// pct parses a "12.3%"-style cell back to a float.
func pct(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimPrefix(cell, "+"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", cell, err)
	}
	return v / 100
}

func TestE1AllEnginesPresent(t *testing.T) {
	tbl, err := E1SurveyTable(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("E1 has %d rows, want 8", len(tbl.Rows))
	}
	// AEGIS must land near its quoted 25% on the mixed workload.
	for _, row := range tbl.Rows {
		if strings.Contains(row[0], "AEGIS") {
			ov := pct(t, row[4])
			if ov < 0.10 || ov > 0.45 {
				t.Errorf("AEGIS overhead %.1f%% outside the tens-of-percent band", 100*ov)
			}
		}
	}
}

func TestE2StreamBeatsIterativeBlock(t *testing.T) {
	tbl, err := E2StreamVsBlock(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	var streamOv, iterOv, ctrOv float64
	for _, row := range tbl.Rows {
		ov := pct(t, row[2])
		switch {
		case row[0] == "stream" && row[1] == "pointer-chase":
			streamOv = ov
		case strings.Contains(row[0], "iterative") && row[1] == "pointer-chase":
			iterOv = ov
		case strings.Contains(row[0], "ctr") && row[1] == "pointer-chase":
			ctrOv = ov
		}
	}
	if iterOv < 5*streamOv {
		t.Errorf("iterative block (%.1f%%) should dwarf stream (%.1f%%)", 100*iterOv, 100*streamOv)
	}
	if ctrOv > 3*streamOv+0.02 {
		t.Errorf("CTR (%.1f%%) should be near stream (%.1f%%)", 100*ctrOv, 100*streamOv)
	}
}

func TestE3RMWGrowsWithWriteFraction(t *testing.T) {
	tbl, err := E3WritePenalty(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	var ecbOv []float64
	for _, row := range tbl.Rows {
		if row[1] == "aes-ecb" {
			ecbOv = append(ecbOv, pct(t, row[3]))
		}
		if row[1] == "aes-ctr" {
			if rmw := row[2]; rmw != "0" {
				t.Errorf("CTR reported RMW events: %s", rmw)
			}
		}
	}
	for i := 1; i < len(ecbOv); i++ {
		if ecbOv[i] <= ecbOv[i-1] {
			t.Errorf("ECB RMW overhead not increasing: %v", ecbOv)
		}
	}
	if last := ecbOv[len(ecbOv)-1]; last < 0.2 {
		t.Errorf("heavy-write ECB overhead %.1f%% too small for the 'even worse' claim", 100*last)
	}
}

func TestE4ECBLeaksOthersDoNot(t *testing.T) {
	tbl, err := E4ECBLeakage()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][2]string{}
	for _, row := range tbl.Rows {
		got[row[0]] = [2]string{row[1], row[2]}
	}
	if got["plaintext"][1] != "true" {
		t.Error("plaintext bus should reveal the program to the probe")
	}
	if got["aes-ecb"][1] != "false" {
		t.Error("ECB should still hide literal plaintext")
	}
	ecbRatio, _ := strconv.ParseFloat(got["aes-ecb"][0], 64)
	aegisRatio, _ := strconv.ParseFloat(got["aegis line-CBC"][0], 64)
	if ecbRatio < 0.5 {
		t.Errorf("ECB duplicate ratio %.2f should preserve the plaintext's 0.75", ecbRatio)
	}
	if aegisRatio > 0.05 {
		t.Errorf("AEGIS duplicate ratio %.2f should be ~0", aegisRatio)
	}
}

func TestE5ChainedCBCWorseAndGrowing(t *testing.T) {
	tbl, err := E5CBCRandomAccess(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	first := pct(t, tbl.Rows[0][1])
	last := pct(t, tbl.Rows[len(tbl.Rows)-1][1])
	if last <= first {
		t.Errorf("CBC overhead should grow with jump rate: %.1f%% -> %.1f%%", 100*first, 100*last)
	}
	for _, row := range tbl.Rows {
		cbc, ecb := pct(t, row[1]), pct(t, row[2])
		if cbc < 3*ecb {
			t.Errorf("jump %s: chained CBC (%.1f%%) should dwarf ECB (%.1f%%)", row[0], 100*cbc, 100*ecb)
		}
	}
}

func TestE6AegisShape(t *testing.T) {
	tbl, err := E6Aegis(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	var pipelined, iterative float64
	for _, row := range tbl.Rows {
		switch {
		case row[0] == "aegis" && row[1] == "sequential":
			pipelined = pct(t, row[2])
		case row[0] == "aegis-iterative" && row[1] == "sequential":
			iterative = pct(t, row[2])
		case row[0] == "iv=random rewrite leak":
			if row[2] != "15 repeats" {
				t.Errorf("random IV leak: %s", row[2])
			}
		case row[0] == "iv=counter rewrite leak":
			if row[2] != "0 repeats" {
				t.Errorf("counter IV leak: %s", row[2])
			}
		}
	}
	if pipelined < 0.08 || pipelined > 0.45 {
		t.Errorf("AEGIS pipelined overhead %.1f%% out of band", 100*pipelined)
	}
	if iterative < 3*pipelined {
		t.Errorf("iterative ablation (%.1f%%) should dwarf pipelined (%.1f%%)", 100*iterative, 100*pipelined)
	}
}

func TestE7XomQuotes(t *testing.T) {
	tbl, err := E7XomPipeline(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][1] != "14" {
		t.Errorf("latency row: %v", tbl.Rows[0])
	}
	if tbl.Rows[1][1] != "77" { // 14 + 63
		t.Errorf("burst row: %v", tbl.Rows[1])
	}
	if tbl.Rows[2][1] != "1.000" {
		t.Errorf("throughput row: %v", tbl.Rows[2])
	}
}

func TestE8ClaimMetForResidentCode(t *testing.T) {
	tbl, err := E8Gilmont(60000) // needs steady state; warmup dominates short runs
	if err != nil {
		t.Fatal(err)
	}
	metSomewhere := false
	var smallFootprint, thrashing float64
	for _, row := range tbl.Rows {
		if row[4] == "true" {
			metSomewhere = true
		}
		if row[0] == "8K" && row[1] == "2%" {
			smallFootprint = pct(t, row[3])
		}
		if row[0] == "2048K" && row[1] == "2%" {
			thrashing = pct(t, row[3])
		}
	}
	if !metSomewhere {
		t.Error("the <2.5% claim should hold somewhere in the sweep")
	}
	if smallFootprint >= thrashing {
		t.Errorf("resident code (%.2f%%) should beat thrashing code (%.2f%%)", 100*smallFootprint, 100*thrashing)
	}
}

func TestE9KuhnBreaksDS5002Not5240(t *testing.T) {
	tbl, err := E9Kuhn()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Rows[0][1], "true") {
		t.Errorf("DS5002 dump should succeed: %v", tbl.Rows[0])
	}
	if !strings.Contains(tbl.Rows[1][1], "hits in 2e5 random injections: 0") {
		t.Errorf("DS5240 should resist: %v", tbl.Rows[1])
	}
}

func TestE10PlusMinusShape(t *testing.T) {
	tbl, err := E10CodePack(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	fast := pct(t, tbl.Rows[0][3])
	slow := pct(t, tbl.Rows[len(tbl.Rows)-1][3])
	if fast <= 0 {
		t.Errorf("fast memory should show a slowdown, got %+.1f%%", 100*fast)
	}
	if slow >= 0 {
		t.Errorf("slow memory should show a speedup, got %+.1f%%", 100*slow)
	}
	// Density gain in the CodePack band.
	if d := tbl.Rows[0][4]; d != "32%" && d != "33%" && d != "34%" && d != "35%" && d != "36%" {
		t.Errorf("density gain %s outside ~35%% band", d)
	}
}

func TestE11CacheSideNeverWins(t *testing.T) {
	tbl, err := E11CacheSide(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	// Pair rows: 7a then 7b per workload; 7b must never be cheaper.
	for i := 0; i+1 < len(tbl.Rows); i += 2 {
		a := pct(t, tbl.Rows[i][3])
		b := pct(t, tbl.Rows[i+1][3])
		if b < a {
			t.Errorf("workload %s: 7b (%.2f%%) beat 7a (%.2f%%)", tbl.Rows[i][2], 100*b, 100*a)
		}
		gatesA, _ := strconv.Atoi(tbl.Rows[i][4])
		gatesB, _ := strconv.Atoi(tbl.Rows[i+1][4])
		if gatesB < 10*gatesA {
			t.Errorf("7b area (%d) should dwarf 7a (%d)", gatesB, gatesA)
		}
	}
}

func TestE12OrderingRule(t *testing.T) {
	tbl, err := E12CompressThenEncrypt(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	plainRatio, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	ctRatio, _ := strconv.ParseFloat(tbl.Rows[1][1], 64)
	if plainRatio < 1.2 {
		t.Errorf("plaintext should compress: ratio %.2f", plainRatio)
	}
	if ctRatio >= 1.0 {
		t.Errorf("ciphertext should not compress: ratio %.2f", ctRatio)
	}
	encOnly := pct(t, tbl.Rows[2][1])
	combo := pct(t, tbl.Rows[3][1])
	if combo >= encOnly {
		t.Errorf("compress-then-encrypt (%.1f%%) should beat encryption alone (%.1f%%)", 100*combo, 100*encOnly)
	}
}

func TestE13LifetimeShape(t *testing.T) {
	tbl, err := E13BruteForce()
	if err != nil {
		t.Fatal(err)
	}
	var desYears float64
	for _, row := range tbl.Rows {
		if row[0] == "56" {
			desYears, _ = strconv.ParseFloat(row[2], 64)
		}
	}
	if desYears <= 0 || desYears > 10 {
		t.Errorf("DES lifetime %.1f years; the survey's ~10-year rule should catch it", desYears)
	}
}

func TestE14ProtocolOutcomes(t *testing.T) {
	tbl, err := E14KeyExchange()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Rows[0][1], "matches editor's image: true") {
		t.Errorf("processor row: %v", tbl.Rows[0])
	}
	if !strings.Contains(tbl.Rows[1][1], "plaintext visible: false") {
		t.Errorf("eavesdropper row: %v", tbl.Rows[1])
	}
}

func TestE15BestCharacter(t *testing.T) {
	tbl, err := E15Best()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][1] != "0" {
		t.Errorf("cross-address duplicates: %s, want 0 (poly-alphabetic)", tbl.Rows[0][1])
	}
	if tbl.Rows[1][1] != "true" {
		t.Error("rewrites should repeat (deterministic per address)")
	}
	collisions, _ := strconv.Atoi(tbl.Rows[2][1])
	if collisions < 4 || collisions > 64 {
		t.Errorf("alphabet collisions %d far from the ~16 expectation", collisions)
	}
}

func TestE16PageLocalityShape(t *testing.T) {
	tbl, err := E16VlsiDma(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	// Streaming (first row) must fault rarely and beat the per-line
	// engine; pointer-chase (last row) must fault almost always.
	firstFault := pct(t, tbl.Rows[0][1])
	lastFault := pct(t, tbl.Rows[len(tbl.Rows)-1][1])
	if firstFault > 0.05 {
		t.Errorf("streaming fault rate %.1f%% too high", 100*firstFault)
	}
	if lastFault < 0.8 {
		t.Errorf("pointer-chase fault rate %.1f%% too low", 100*lastFault)
	}
	for _, row := range tbl.Rows {
		vlsi, perLine := pct(t, row[2]), pct(t, row[3])
		if row[0] == "streaming" && vlsi > perLine/10 {
			t.Errorf("streaming: VLSI (%.1f%%) should crush per-line (%.1f%%)", 100*vlsi, 100*perLine)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/suite.golden from the suite at this commit")

// TestFullSuiteRuns renders all 22 tables at 10,000 refs and pins their
// concatenated bytes against testdata/suite.golden, so a change that
// moves any simulated cycle or result cell fails here. Regenerate
// deliberately with:
//
//	go test ./internal/core -run TestFullSuiteRuns -update
func TestFullSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	var tables []*Table
	for _, exp := range Experiments() {
		tbl, err := exp.Run(10000)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		tables = append(tables, tbl)
	}
	if len(tables) != 22 {
		t.Fatalf("%d tables, want 22", len(tables))
	}
	var got bytes.Buffer
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", tbl.ID)
		}
		got.WriteString(tbl.String())
	}
	path := filepath.Join("testdata", "suite.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("suite output drifted from %s (refresh deliberately with -update):\n%s",
			path, firstDiff(want, got.Bytes()))
	}
}

// firstDiff renders the first differing line of got vs want.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n want: %s\n  got: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}
