package soc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/edu"
	"repro/internal/edu/products"
	"repro/internal/obs/rec"
	"repro/internal/sim/authtree"
	"repro/internal/sim/cache"
	"repro/internal/sim/trace"
)

// sizedEngine wraps an engine as an edu.TransferSizer: code lines cross
// the bus at half size, the Figure 8 compressed-transfer path.
type sizedEngine struct{ edu.Engine }

func (e sizedEngine) TransferBytes(addr uint64, lineBytes int) int {
	if addr < 0x4000_0000 {
		return lineBytes / 2
	}
	return lineBytes
}

// corruptor is an intruder that, from one reference on, waits for a
// reference to a non-resident line of the loaded image and overwrites
// that line in DRAM, so the fill that fetches it fails verification; it
// logs every violation it is told about.
type corruptor struct {
	at         uint64
	struck     bool
	violations []uint64
}

func (c *corruptor) Strike(refIndex uint64, ref trace.Ref, s *SoC) {
	if c.struck || refIndex < c.at || ref.Addr%crossingBase >= crossingImage || s.Resident(ref.Addr) {
		return
	}
	s.DRAM().Write(ref.Addr&^31, bytes.Repeat([]byte{0xEE}, 32))
	c.struck = true
}

func (c *corruptor) OnViolation(refIndex, lineAddr uint64) {
	c.violations = append(c.violations, refIndex, lineAddr)
}

const (
	crossingCode  = 16 << 10
	crossingData  = 256 << 10
	crossingBase  = 0x4000_0000
	crossingImage = 8 << 10 // loaded at 0 and at crossingBase
)

// crossingSource overflows a 64 KiB L2, so lines cross every boundary
// in both directions during the run as well as in the final flush.
func crossingSource() trace.RefSource {
	return trace.SequentialSource(trace.Config{
		Refs: 12000, Seed: 27, LoadFraction: 0.4, WriteFraction: 0.4, JumpRate: 0.03, Locality: 0.5,
		CodeBase: 0, CodeSize: crossingCode, DataBase: crossingBase, DataSize: crossingData,
	})
}

type crossingCase struct {
	l2        bool
	placement edu.Placement
	tree      bool
	through   bool
	sized     bool
	intruder  bool
	report    string // sha256 of the Report's JSON
	dram      string // sha256 of every DRAM page the run touched
	events    string // sha256 of the flight-recorder stream
}

func (c crossingCase) name() string {
	n := fmt.Sprintf("l2=%v/%v/tree=%v/through=%v", c.l2, c.placement, c.tree, c.through)
	if c.sized {
		n += "/sized"
	}
	if c.intruder {
		n += "/intruder"
	}
	return n
}

// runCrossing runs one shape and returns its three digests.
func runCrossing(t *testing.T, c crossingCase) (report, image, events string) {
	t.Helper()
	eng, err := products.AEGIS([]byte("0123456789abcdef"), 0xae915)
	if err != nil {
		t.Fatal(err)
	}
	if c.sized {
		eng = sizedEngine{eng}
	}
	rc := rec.New(1 << 20)
	cfg := DefaultConfig()
	cfg.Engine = eng
	cfg.Placement = c.placement
	cfg.Recorder = rc
	if c.l2 {
		cfg.L2 = l2Config(64 << 10)
	}
	if c.through {
		cfg.Cache.WriteMode = cache.WriteThrough
	}
	if c.tree {
		ver, err := authtree.New(authtree.Config{
			Key:       []byte("0123456789abcdef"),
			LineBytes: 32,
			Regions: []authtree.Region{
				{Base: 0, Bytes: 1 << 20},
				{Base: crossingBase, Bytes: 1 << 20},
			},
			NodeCacheBytes: 4 << 10,
			Variant:        authtree.HashTree,
		})
		if err != nil {
			t.Fatal(err)
		}
		ver.SetRecorder(rc)
		cfg.Verifier = ver
	}
	var intr *corruptor
	if c.intruder {
		intr = &corruptor{at: 2000}
		cfg.Intruder = intr
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, crossingImage)
	for i := range img {
		img[i] = byte(i*7 + i>>8)
	}
	if err := s.LoadImage(0, img); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadImage(crossingBase, img); err != nil {
		t.Fatal(err)
	}
	rc.Reset()
	src := crossingSource()
	rep := s.Run(src)
	if c.intruder && (rep.AuthViolations == 0 || len(intr.violations) == 0) {
		t.Fatalf("intruder's tamper went undetected (struck %v, %d, %v)", intr.struck, rep.AuthViolations, intr.violations)
	}

	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	report = hex.EncodeToString(sum[:])

	var pages []uint64
	src.Reset()
	for ref, ok := src.Next(); ok; ref, ok = src.Next() {
		pages = append(pages, ref.Addr&^4095)
	}
	slices.Sort(pages)
	h := sha256.New()
	for _, p := range slices.Compact(pages) {
		fmt.Fprintf(h, "%x:", p)
		h.Write(s.DRAM().Dump(p, 4096))
	}
	image = hex.EncodeToString(h.Sum(nil))

	st := rc.Seal("soc")
	if st.Dropped != 0 {
		t.Fatalf("recorder dropped %d events", st.Dropped)
	}
	h = sha256.New()
	for _, ev := range st.Events {
		fmt.Fprintf(h, "%d %d %d %x %d %d %d %d\n", ev.Seq, ev.Cycle, ev.Ref, ev.Addr, ev.Arg, ev.Kind, ev.Level, ev.Flags)
	}
	if intr != nil {
		fmt.Fprintf(h, "violations %v\n", intr.violations)
	}
	events = hex.EncodeToString(h.Sum(nil))
	return report, image, events
}

// TestCrossingPinned pins, per hierarchy shape, the report, the final
// DRAM image and the flight-recorder stream of one run: the order and
// cost of every line crossing (engine, verifier, bus and DRAM calls)
// under every valid placement, verifier and write policy.
func TestCrossingPinned(t *testing.T) {
	for _, c := range crossingCases {
		t.Run(c.name(), func(t *testing.T) {
			report, image, events := runCrossing(t, c)
			if report != c.report {
				t.Errorf("report digest %s, pinned %s", report, c.report)
			}
			if image != c.dram {
				t.Errorf("DRAM digest %s, pinned %s", image, c.dram)
			}
			if events != c.events {
				t.Errorf("event digest %s, pinned %s", events, c.events)
			}
		})
	}
}

// crossingCases holds every valid shape of {no L2, 64 KiB L2} x
// placement x {no verifier, hash tree} x write policy (write-through is
// single-level only), then a transfer-sizing engine and a tampering
// intruder at both boundaries.
var crossingCases = []crossingCase{
	{
		report: "d1978ad24d7cd910d2842301346eb697371357c761b95fa06d337683ad42f781",
		dram:   "6449ad3c5f8db696c4c46968fd8bd8933a6070fb4feb91bb8980021836417e85",
		events: "c349c17c5c078aa1a0249dce5a32bd052e5af3422e67aca676969bd1c0513ce4"},
	{through: true,
		report: "10ed304255541dc77b30f41ef27d8e7b7b4705c321743482f720a57d849d68c9",
		dram:   "61723600cc612d569164a0fa20fbdb0e257400c72047f8b00986667652782afa",
		events: "63ebd04ab055bfa387e2cbccd54d9a659b33e65cdd5eb45e3aa2fd714aae1ba4"},
	{tree: true,
		report: "c19bf903afca052a7147f438e889b2b7adcf3a4f83cac42ac22cb6e8a004b95c",
		dram:   "6449ad3c5f8db696c4c46968fd8bd8933a6070fb4feb91bb8980021836417e85",
		events: "ddaa9a0bb768153b708fa91c576679abb96353507c3c094c3a9a47d7877502e3"},
	{tree: true, through: true,
		report: "40c0939c16b578067e1b7559c781ec823eec66029edb7ef9abe71ca08a5f1718",
		dram:   "61723600cc612d569164a0fa20fbdb0e257400c72047f8b00986667652782afa",
		events: "ff2f7c66ea941c802480b3eaccbeaf9cf376aa9bff3c2a5ee6dbb55382270f19"},
	{placement: edu.PlacementCPUCache,
		report: "d1978ad24d7cd910d2842301346eb697371357c761b95fa06d337683ad42f781",
		dram:   "6449ad3c5f8db696c4c46968fd8bd8933a6070fb4feb91bb8980021836417e85",
		events: "c349c17c5c078aa1a0249dce5a32bd052e5af3422e67aca676969bd1c0513ce4"},
	{placement: edu.PlacementCPUCache, through: true,
		report: "10ed304255541dc77b30f41ef27d8e7b7b4705c321743482f720a57d849d68c9",
		dram:   "61723600cc612d569164a0fa20fbdb0e257400c72047f8b00986667652782afa",
		events: "63ebd04ab055bfa387e2cbccd54d9a659b33e65cdd5eb45e3aa2fd714aae1ba4"},
	{placement: edu.PlacementCPUCache, tree: true,
		report: "c19bf903afca052a7147f438e889b2b7adcf3a4f83cac42ac22cb6e8a004b95c",
		dram:   "6449ad3c5f8db696c4c46968fd8bd8933a6070fb4feb91bb8980021836417e85",
		events: "ddaa9a0bb768153b708fa91c576679abb96353507c3c094c3a9a47d7877502e3"},
	{placement: edu.PlacementCPUCache, tree: true, through: true,
		report: "40c0939c16b578067e1b7559c781ec823eec66029edb7ef9abe71ca08a5f1718",
		dram:   "61723600cc612d569164a0fa20fbdb0e257400c72047f8b00986667652782afa",
		events: "ff2f7c66ea941c802480b3eaccbeaf9cf376aa9bff3c2a5ee6dbb55382270f19"},
	{l2: true,
		report: "bcf3747e36142e0e1342f8bbb14f4b737b8936c1cc96b1356e22f57792285b20",
		dram:   "f713bc3c2055dbfd0fa8b3f9af8e0e3e88d1fd17695268b823d8dfe3a6ef1afa",
		events: "7ed6d7ee77965976df47325547e2f0f36140995a148a577d2e8eb5cc0dbbeaac"},
	{l2: true, tree: true,
		report: "fc7949fb115ca5039e4f9accb991cf6850ad8b6a5f84ffde0f2057d51332f790",
		dram:   "f713bc3c2055dbfd0fa8b3f9af8e0e3e88d1fd17695268b823d8dfe3a6ef1afa",
		events: "6743b19f3d45c61f79b8fa8e8784c0d6d54c0393d74166df029286a1253755b9"},
	{l2: true, placement: edu.PlacementCPUCache,
		report: "d12684399fa200096a04699d086438fe15c772469e3d161a8484d6eed83415a9",
		dram:   "6449ad3c5f8db696c4c46968fd8bd8933a6070fb4feb91bb8980021836417e85",
		events: "428c127b1613fd347281d63fee3504dfdd58cc07359666ecd6ad3a623edb74f2"},
	{l2: true, placement: edu.PlacementCPUCache, tree: true,
		report: "e6d5578cb030d57c5414190c1b1ad17ec66ccf7fe040e7f6335d3485808012d7",
		dram:   "6449ad3c5f8db696c4c46968fd8bd8933a6070fb4feb91bb8980021836417e85",
		events: "1d64c71b866bd1b11efe94a3df00adeb7367d5ea938c8477358346b9920f0ed7"},
	{l2: true, placement: edu.PlacementL1L2,
		report: "d12684399fa200096a04699d086438fe15c772469e3d161a8484d6eed83415a9",
		dram:   "6449ad3c5f8db696c4c46968fd8bd8933a6070fb4feb91bb8980021836417e85",
		events: "428c127b1613fd347281d63fee3504dfdd58cc07359666ecd6ad3a623edb74f2"},
	{l2: true, placement: edu.PlacementL1L2, tree: true,
		report: "e6d5578cb030d57c5414190c1b1ad17ec66ccf7fe040e7f6335d3485808012d7",
		dram:   "6449ad3c5f8db696c4c46968fd8bd8933a6070fb4feb91bb8980021836417e85",
		events: "1d64c71b866bd1b11efe94a3df00adeb7367d5ea938c8477358346b9920f0ed7"},
	{l2: true, placement: edu.PlacementL2DRAM,
		report: "bcf3747e36142e0e1342f8bbb14f4b737b8936c1cc96b1356e22f57792285b20",
		dram:   "f713bc3c2055dbfd0fa8b3f9af8e0e3e88d1fd17695268b823d8dfe3a6ef1afa",
		events: "7ed6d7ee77965976df47325547e2f0f36140995a148a577d2e8eb5cc0dbbeaac"},
	{l2: true, placement: edu.PlacementL2DRAM, tree: true,
		report: "fc7949fb115ca5039e4f9accb991cf6850ad8b6a5f84ffde0f2057d51332f790",
		dram:   "f713bc3c2055dbfd0fa8b3f9af8e0e3e88d1fd17695268b823d8dfe3a6ef1afa",
		events: "6743b19f3d45c61f79b8fa8e8784c0d6d54c0393d74166df029286a1253755b9"},
	{sized: true,
		report: "f8699b5ef42ad6ae33d9908bd53d302018a99ba2edf95f3723c9f9126e353c42",
		dram:   "6449ad3c5f8db696c4c46968fd8bd8933a6070fb4feb91bb8980021836417e85",
		events: "759c7ce3c14ef356b714a1e5aeaaff1e6780248f3ad805cba8d0330575a36751"},
	{through: true, sized: true,
		report: "565435a9e483ecd1e60a2855758e544d2c0714940bbf24b24d5ccf69fa4ef3d8",
		dram:   "61723600cc612d569164a0fa20fbdb0e257400c72047f8b00986667652782afa",
		events: "2e403a8b61325c54799dcecceb9722d18a91a8a8445e07a3f5757b80fc57310c"},
	{l2: true, placement: edu.PlacementL1L2, sized: true,
		report: "8a1a3e0007b4912b045fa769d52b429c70843d34f22e37998823cdcc684e8fd6",
		dram:   "6449ad3c5f8db696c4c46968fd8bd8933a6070fb4feb91bb8980021836417e85",
		events: "f07288462b3028d373ed112ad868ffc30ffc9244b8acc751e2afbb02068cb3ab"},
	{tree: true, intruder: true,
		report: "b2ded1ca6a8dfe38fae2b46cfc9e7366f6cb81bb4f7f719c7e7528969f8285fc",
		dram:   "55c26af8d3fd62d28557fba7b5311338c8976bcaa4903182dbdd94860cc3a0ac",
		events: "34c39466be334ef6440f56423940a3569cde90dd88208f0aea1cce2a224d1fb3"},
	{tree: true, through: true, intruder: true,
		report: "142ecaaa74066a74bcf078828d2f9df0c3cfa880879ca6e463967cea28698b10",
		dram:   "9bcc2921b689a5f61fa7d100a222558b15e1df77955f79e9fc27fab3916f376c",
		events: "c369c2e9971226825226593e3c1caaf3a5aac7705766b2fb3ddf3d7536d79569"},
	{l2: true, placement: edu.PlacementL1L2, tree: true, intruder: true,
		report: "4230c7c1d03892961af6005fe2708456e087b381917d4b16a9e89eda10d59931",
		dram:   "55c26af8d3fd62d28557fba7b5311338c8976bcaa4903182dbdd94860cc3a0ac",
		events: "a39657087ad593d1a8bd753df179234e1b8c9bd0619486dbe0735b164fefd649"},
	{l2: true, placement: edu.PlacementL2DRAM, tree: true, intruder: true,
		report: "9ae3c2ebb951c6e6f6d115265dc4a132d1f60681b1ee867478a692e47e3d62c8",
		dram:   "6fb717325b17bc87809d8f0fbbb0c22f796a9157ddaf067fdced2aa1ae91c088",
		events: "99891beb3f88ed6af8335619bc52da33ff37a03b6928154fe4f62b15c100e233"},
}
