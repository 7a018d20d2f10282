package keyedhash

import (
	"bytes"
	stdhmac "crypto/hmac"
	stdsha "crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// sum tags msg under key through a fresh MAC.
func sum(key, msg []byte) [Size]byte {
	var m MAC
	m.Init(key)
	m.Write(msg)
	return m.SumFixed()
}

func stdSum(key, msg []byte) []byte {
	ref := stdhmac.New(stdsha.New, key)
	ref.Write(msg)
	return ref.Sum(nil)
}

// One reused MAC, fed in arbitrary chunkings, must equal the one-shot
// crypto/hmac tag for every key and message.
func TestHMACAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		key := make([]byte, 1+rng.Intn(100))
		msg := make([]byte, rng.Intn(200))
		rng.Read(key)
		rng.Read(msg)
		var m MAC
		m.Init(key)
		for round := 0; round < 2; round++ {
			m.Reset()
			for rest := msg; len(rest) > 0; {
				n := min(1+rng.Intn(70), len(rest))
				m.Write(rest[:n])
				rest = rest[n:]
			}
			got := m.SumFixed()
			if !bytes.Equal(got[:], stdSum(key, msg)) {
				t.Fatalf("HMAC mismatch keyLen=%d msgLen=%d round=%d", len(key), len(msg), round)
			}
		}
	}
}

// A long message written in random chunks, crossing many SHA-256 block
// boundaries, must tag the same as the one-shot write.
func TestSHA256Incremental(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	key := []byte("incremental")
	msg := make([]byte, 1000)
	rng.Read(msg)
	want := sum(key, msg)

	var m MAC
	m.Init(key)
	for rest := msg; len(rest) > 0; {
		n := min(1+rng.Intn(100), len(rest))
		m.Write(rest[:n])
		rest = rest[n:]
	}
	if got := m.SumFixed(); got != want {
		t.Error("incremental tag differs from one-shot")
	}
	if !bytes.Equal(want[:], stdSum(key, msg)) {
		t.Error("one-shot tag differs from crypto/hmac")
	}
}

func TestHMACRFC4231Vector(t *testing.T) {
	got := sum(bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"))
	want := "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
	if hex.EncodeToString(got[:]) != want {
		t.Errorf("RFC 4231 case 1: got %x", got)
	}
}

// SumFixed must not disturb the running state.
func TestSumIsNonDestructive(t *testing.T) {
	var m MAC
	m.Init([]byte("key"))
	m.Write([]byte("hello "))
	_ = m.SumFixed()
	m.Write([]byte("world"))
	if m.SumFixed() != sum([]byte("key"), []byte("hello world")) {
		t.Error("SumFixed disturbed the MAC state")
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	var m MAC
	m.Init([]byte("key"))
	m.Write([]byte("garbage"))
	m.Reset()
	m.Write([]byte("abc"))
	if m.SumFixed() != sum([]byte("key"), []byte("abc")) {
		t.Error("Reset did not restore the keyed initial state")
	}
	// The zero MAC is usable: it tags under the empty key.
	var z MAC
	z.Reset()
	z.Write([]byte("abc"))
	if got := z.SumFixed(); !bytes.Equal(got[:], stdSum(nil, []byte("abc"))) {
		t.Error("zero MAC does not tag under the empty key")
	}
}

// Reset/Write/SumFixed run once per authenticated line. Reprolint does
// not see into crypto/hmac, so this pin is the only guard: it fails if
// the tag buffer handed to hash.Hash.Sum moves back onto the stack.
func TestMACZeroAllocs(t *testing.T) {
	var m MAC
	m.Init([]byte("mac-key"))
	line := make([]byte, 48)
	if avg := testing.AllocsPerRun(100, func() {
		m.Reset()
		m.Write(line)
		m.SumFixed()
	}); avg != 0 {
		t.Errorf("Reset/Write/SumFixed allocated %.1f times per line, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { m.TagLine(0x40, 7, line) }); avg != 0 {
		t.Errorf("TagLine allocated %.1f times per line, want 0", avg)
	}
}

// TagLine is the truncated crypto/hmac tag of addr ‖ version ‖ data,
// and each binding moves it.
func TestTagLineAgainstStdlib(t *testing.T) {
	var m MAC
	m.Init([]byte("tag-key"))
	line := []byte("genuine firmware line, 32 bytes!")
	msg := append([]byte{0, 0, 0, 0, 0, 0, 0x12, 0x40, 0, 0, 0, 0, 0, 0, 0, 3}, line...)
	got := m.TagLine(0x1240, 3, line)
	if want := stdSum([]byte("tag-key"), msg); !bytes.Equal(got[:], want[:TagBytes]) {
		t.Fatalf("TagLine = %x, want %x", got, want[:TagBytes])
	}
	if m.TagLine(0x1260, 3, line) == got || m.TagLine(0x1240, 4, line) == got {
		t.Error("tag does not bind the address and the version")
	}
}

func TestHMACProperty(t *testing.T) {
	f := func(key, msg []byte) bool {
		if len(key) == 0 {
			key = []byte{0}
		}
		got := sum(key, msg)
		return bytes.Equal(got[:], stdSum(key, msg))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
