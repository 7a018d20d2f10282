package core

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/edu"
)

func TestE17IntegrityShape(t *testing.T) {
	tbl, err := E17Integrity(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("E17 has %d rows, want 3", len(tbl.Rows))
	}
	// Row 0: plain engine — all three attacks land.
	plain := tbl.Rows[0]
	if plain[1] != "ACCEPTED" || plain[2] != "ACCEPTED" || plain[3] != "ACCEPTED" {
		t.Errorf("plain engine should fail all attacks: %v", plain)
	}
	// Row 1: MAC-only — spoof and splice blocked, replay lands.
	mac := tbl.Rows[1]
	if mac[1] != "blocked" || mac[2] != "blocked" {
		t.Errorf("MAC should block spoof/splice: %v", mac)
	}
	if mac[3] != "ACCEPTED" {
		t.Errorf("MAC-only should fall to replay: %v", mac)
	}
	// Row 2: freshness — everything blocked.
	fresh := tbl.Rows[2]
	if fresh[1] != "blocked" || fresh[2] != "blocked" || fresh[3] != "blocked" {
		t.Errorf("freshness should block everything: %v", fresh)
	}
	// Protection costs strictly more at each level.
	ovPlain, ovMAC, ovFresh := pct(t, plain[4]), pct(t, mac[4]), pct(t, fresh[4])
	if !(ovPlain < ovMAC && ovMAC <= ovFresh) {
		t.Errorf("overheads should be ordered: %v %v %v", ovPlain, ovMAC, ovFresh)
	}
	// Labels name the engine and the protection level; gates add the
	// HMAC tag unit, then the 64Ki-line counter table at 8 bytes a line.
	gates := func(row []string) int {
		g, err := strconv.Atoi(row[5])
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for i, want := range []string{"xom-aes", "xom-aes+mac", "xom-aes+mac+freshness"} {
		if tbl.Rows[i][0] != want {
			t.Errorf("row %d is %q, want %q", i, tbl.Rows[i][0], want)
		}
	}
	if got := gates(mac) - gates(plain); got != edu.MACUnitGates {
		t.Errorf("MAC row adds %d gates, want the tag unit's %d", got, edu.MACUnitGates)
	}
	if got := gates(fresh) - gates(mac); got != (1<<16)*8*edu.SRAMGatesPerByte {
		t.Errorf("freshness adds %d gates, want the counter table's %d", got, (1<<16)*8*edu.SRAMGatesPerByte)
	}
}

func TestE18AblationShapes(t *testing.T) {
	tbl, err := E18Ablations(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	byKnob := map[string][]float64{}
	for _, row := range tbl.Rows {
		byKnob[row[0]] = append(byKnob[row[0]], pct(t, row[2]))
	}
	// Bigger cache -> fewer misses -> less engine exposure.
	cs := byKnob["cache size"]
	if len(cs) != 3 || cs[2] >= cs[0] {
		t.Errorf("cache-size sweep should fall: %v", cs)
	}
	// Faster bus (divider 1) exposes the engine more than a slow bus.
	bd := byKnob["bus divider"]
	if len(bd) != 3 || bd[0] <= bd[2] {
		t.Errorf("bus-divider sweep should fall as the bus slows: %v", bd)
	}
	// Engine latency moves overhead monotonically.
	al := byKnob["AES latency"]
	if len(al) != 3 || !(al[0] < al[1] && al[1] < al[2]) {
		t.Errorf("latency sweep should rise: %v", al)
	}
}

func TestE19KeyManagementShape(t *testing.T) {
	tbl, err := E19KeyManagement(testRefs)
	if err != nil {
		t.Fatal(err)
	}
	// Switch counts fall as the quantum grows; overhead falls with them.
	var switches []int
	var overheads []float64
	for _, row := range tbl.Rows {
		if row[0] == "isolation" {
			if !strings.Contains(row[3], "differ: true") {
				t.Errorf("domain isolation broken: %v", row)
			}
			continue
		}
		n, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatal(err)
		}
		switches = append(switches, n)
		overheads = append(overheads, pct(t, row[3]))
	}
	// Cross-domain writebacks floor the switch count, so monotonicity
	// holds only between the extremes of the sweep.
	if switches[len(switches)-1] >= switches[0] {
		t.Errorf("long quanta should switch less than short ones: %v", switches)
	}
	if overheads[len(overheads)-1] >= overheads[0] {
		t.Errorf("key-reload overhead should shrink with quantum: %v", overheads)
	}
	if last := overheads[len(overheads)-1]; last > 0.03 {
		t.Errorf("realistic quantum overhead %.2f%% should be negligible", 100*last)
	}
}
