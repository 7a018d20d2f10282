package core

// The authenticator registry: the memory-authentication counterpart of
// Survey(). Confidentiality engines and authenticators are orthogonal
// axes — any engine key can be paired with any authenticator key, in
// the CLIs ("xom+tree") and in campaign sweeps (-authtree) — because
// the SoC drives the edu.Verifier independently of the edu.Engine on
// the same miss/writeback traffic.

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/edu"
	"repro/internal/sim/addrmap"
	"repro/internal/sim/authtree"
	"repro/internal/sim/soc"
)

// Default protected-memory geometry for registry-built authenticators:
// the code region plus a data window at addrmap.DataBase. Experiments
// that sweep the protected size (E20) build their trees directly
// instead.
const (
	// ProtectedCodeBytes is the protected code window at address 0.
	ProtectedCodeBytes = 1 << 20
	// ProtectedDataBytes is the protected data window at addrmap.DataBase.
	ProtectedDataBytes = 16 << 20
	// AuthNodeCacheBytes is the default on-chip tree-node cache.
	AuthNodeCacheBytes = 4 << 10
)

// authKey is the AES-128 key of the GMAC node tags in registry builds
// (16 bytes).
var authKey = []byte("ghash-tag-key-01")

// DefaultProtectedRegions returns the standard protected windows.
func DefaultProtectedRegions() []authtree.Region {
	return []authtree.Region{
		{Base: 0, Bytes: ProtectedCodeBytes},
		{Base: addrmap.DataBase, Bytes: ProtectedDataBytes},
	}
}

// AuthEntry describes one registered authenticator.
type AuthEntry struct {
	// Key is the registry lookup name (the -authtree flag vocabulary).
	Key string
	// Name is the descriptive name used in listings.
	Name string
	// Build constructs a fresh verifier sized to lineBytes; it returns
	// nil for the "none" entry.
	Build func(lineBytes int) (edu.Verifier, error)
}

// Authenticators returns the authenticator registry in design-space
// order: nothing, the flat per-line schemes (on-chip area scales with
// protected memory), then the trees (on-chip area constant).
func Authenticators() []AuthEntry {
	protectedLines := func(lineBytes int) int {
		return (ProtectedCodeBytes + ProtectedDataBytes) / lineBytes
	}
	tree := func(variant authtree.Variant) func(int) (edu.Verifier, error) {
		return func(lineBytes int) (edu.Verifier, error) {
			return authtree.New(authtree.Config{
				Key:            authKey,
				LineBytes:      lineBytes,
				Regions:        DefaultProtectedRegions(),
				NodeCacheBytes: AuthNodeCacheBytes,
				Variant:        variant,
			})
		}
	}
	return []AuthEntry{
		{
			Key: "none", Name: "no authentication",
			Build: func(int) (edu.Verifier, error) { return nil, nil },
		},
		{
			Key: "flat-mac", Name: "flat per-line MAC (no freshness: replay passes)",
			Build: func(lineBytes int) (edu.Verifier, error) {
				return authtree.NewFlat(authtree.FlatConfig{Key: authKey})
			},
		},
		{
			Key: "flat-fresh", Name: "flat MAC + on-chip counter table (area ~ protected memory)",
			Build: func(lineBytes int) (edu.Verifier, error) {
				return authtree.NewFlat(authtree.FlatConfig{
					Key: authKey, Fresh: true, ProtectedLines: protectedLines(lineBytes),
				})
			},
		},
		{
			Key: "tree", Name: "Merkle hash tree, cached nodes, on-chip root",
			Build: tree(authtree.HashTree),
		},
		{
			Key: "ctree", Name: "counter tree (AEGIS direction): smaller nodes, same root anchor",
			Build: tree(authtree.CounterTree),
		},
	}
}

// AuthKeys lists the registry keys in order (flag help, validation).
func AuthKeys() []string {
	entries := Authenticators()
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}

// AuthEntryFor resolves an authenticator key.
func AuthEntryFor(key string) (AuthEntry, error) {
	for _, e := range Authenticators() {
		if e.Key == key {
			return e, nil
		}
	}
	return AuthEntry{}, fmt.Errorf("core: unknown authenticator %q (known: %s)",
		key, strings.Join(AuthKeys(), ", "))
}

// BuildAuthenticator constructs a fresh verifier for key at lineBytes;
// key "none" (or "") yields nil.
func BuildAuthenticator(key string, lineBytes int) (edu.Verifier, error) {
	if key == "" {
		key = "none"
	}
	e, err := AuthEntryFor(key)
	if err != nil {
		return nil, err
	}
	return e.Build(lineBytes)
}

// ParseEngineAuth splits a composite "engine[+authenticator]" key, the
// CLI vocabulary of cmd/attacklab -engine: "xom", "xom+tree",
// "aegis+flat-fresh".
func ParseEngineAuth(key string) (engineKey, auth string) {
	if i := strings.IndexByte(key, '+'); i >= 0 {
		return key[:i], key[i+1:]
	}
	return key, "none"
}

// TamperTable runs the three active attacks of internal/attack against
// a freshly assembled system per attack (tampering dirties state) and
// reports the outcomes — the table cmd/attacklab -engine prints. The
// composite key pairs any surveyed engine with any authenticator.
func TamperTable(compositeKey string) (*Table, error) {
	engineKey, auth := ParseEngineAuth(compositeKey)
	entry, err := Entry(engineKey)
	if err != nil {
		return nil, err
	}
	if _, err := AuthEntryFor(auth); err != nil {
		return nil, err
	}

	mkVer := func() (edu.Verifier, error) {
		return BuildAuthenticator(auth, soc.DefaultConfig().Cache.LineSize)
	}
	spoof, splice, replay, err := runTampers(func() (*soc.SoC, error) {
		return tamperSoC(entry.Build, mkVer, firmwareImage())
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "TAMPER",
		Title:  fmt.Sprintf("active-attack outcomes: %s + %s", entry.Name, auth),
		Header: []string{"attack", "verdict", "detail"},
	}
	rows := []struct {
		name string
		out  attack.TamperOutcome
	}{{"spoof", spoof}, {"splice", splice}, {"replay", replay}}
	for _, r := range rows {
		t.AddRow(r.name, verdict(r.out), r.out.Detail)
	}
	return t, nil
}

// firmwareImage is the program image the E17 and attacklab tamper runs
// install at address 0.
func firmwareImage() []byte {
	img := make([]byte, 4096)
	copy(img, []byte("GENUINE FIRMWARE -- entry point -- "))
	for i := 64; i < len(img); i++ {
		img[i] = byte(i * 7)
	}
	return img
}

// tamperSoC assembles the default system from fresh mkEng and mkVer
// instances (a nil verifier is none) and installs img at address 0:
// the victim one tamper attacks.
func tamperSoC(mkEng func() (edu.Engine, error), mkVer func() (edu.Verifier, error), img []byte) (*soc.SoC, error) {
	cfg := soc.DefaultConfig()
	var err error
	if cfg.Engine, err = mkEng(); err != nil {
		return nil, err
	}
	if cfg.Verifier, err = mkVer(); err != nil {
		return nil, err
	}
	s, err := soc.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.LoadImage(0, img); err != nil {
		return nil, err
	}
	return s, nil
}

// verdict names a tamper outcome as the tables print it.
func verdict(o attack.TamperOutcome) string {
	if o.Accepted {
		return "ACCEPTED"
	}
	return "blocked"
}

// runTampers executes spoof, splice and replay, each against its own
// fresh system from mkSoC.
func runTampers(mkSoC func() (*soc.SoC, error)) (spoof, splice, replay attack.TamperOutcome, err error) {
	junk := make([]byte, 32)
	for i := range junk {
		junk[i] = 0xEE
	}
	one := func(f func(*soc.SoC) attack.TamperOutcome) (attack.TamperOutcome, error) {
		s, err := mkSoC()
		if err != nil {
			return attack.TamperOutcome{}, err
		}
		return f(s), nil
	}
	if spoof, err = one(func(s *soc.SoC) attack.TamperOutcome { return attack.Spoof(s, 0x40, junk) }); err != nil {
		return
	}
	if splice, err = one(func(s *soc.SoC) attack.TamperOutcome { return attack.Splice(s, 0x00, 0x40, 32) }); err != nil {
		return
	}
	replay, err = one(func(s *soc.SoC) attack.TamperOutcome {
		return attack.Replay(s, 0x40, 32, func() {
			fresh := make([]byte, 32)
			if err := s.LoadImage(0x40, fresh); err != nil {
				panic(err)
			}
		})
	})
	return
}
