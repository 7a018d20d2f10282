package compress

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/modes"
)

func trained(t testing.TB, n int) (*Codec, []byte) {
	t.Helper()
	prog := SyntheticProgram(n, 42)
	c, err := Train(prog)
	if err != nil {
		t.Fatal(err)
	}
	return c, prog
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("empty program accepted")
	}
	if _, err := Train(make([]byte, 6)); err == nil {
		t.Error("non-multiple-of-4 program accepted")
	}
}

func TestCompressValidation(t *testing.T) {
	c, _ := trained(t, 4096)
	if _, err := c.Compress(nil); err == nil {
		t.Error("empty image accepted")
	}
	if _, err := c.Compress(make([]byte, BlockBytes+4)); err == nil {
		t.Error("non-block-multiple image accepted")
	}
}

func TestRoundtrip(t *testing.T) {
	c, prog := trained(t, 16384)
	im, err := c.Compress(prog)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Decompress(im)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, prog) {
		t.Fatal("decompress != original")
	}
}

// The survey's density claim: ~35 % gain on code, i.e. ratio ≈ 1.35.
// Accept the band [1.2, 1.8] for the synthetic program.
func TestDensityGainNearCodePackClaim(t *testing.T) {
	c, prog := trained(t, 64*1024)
	im, err := c.Compress(prog)
	if err != nil {
		t.Fatal(err)
	}
	r := im.Ratio()
	if r < 1.2 || r > 1.8 {
		t.Errorf("compression ratio %.3f outside CodePack-like band [1.2,1.8]", r)
	}
}

// Random access: any single block decodes without touching the others.
func TestRandomAccessBlocks(t *testing.T) {
	c, prog := trained(t, 8192)
	im, _ := c.Compress(prog)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		blk := rng.Intn(len(im.Index))
		got, err := c.DecompressBlock(im, blk)
		if err != nil {
			t.Fatal(err)
		}
		want := prog[blk*BlockBytes : (blk+1)*BlockBytes]
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d mismatch", blk)
		}
	}
	if _, err := c.DecompressBlock(im, -1); err == nil {
		t.Error("negative block accepted")
	}
	if _, err := c.DecompressBlock(im, len(im.Index)); err == nil {
		t.Error("out-of-range block accepted")
	}
}

// A codec trained on one program still roundtrips another (rare values
// ride the escape path), just with a worse ratio.
func TestEscapePathOnForeignProgram(t *testing.T) {
	c, _ := trained(t, 8192)
	foreign := SyntheticProgram(4096, 999)
	im, err := c.Compress(foreign)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Decompress(im)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, foreign) {
		t.Fatal("foreign roundtrip failed")
	}
}

// Figure 8's ordering rule: compressing ciphertext must do (much) worse
// than compressing plaintext — encrypted data is incompressible.
func TestCiphertextDoesNotCompress(t *testing.T) {
	c, prog := trained(t, 32768)
	plain, err := c.Compress(prog)
	if err != nil {
		t.Fatal(err)
	}

	blk, err := aes.New(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, len(prog))
	modes.NewECB(blk).Encrypt(ct, prog)

	// Retrain on the ciphertext (most favourable for it) and compress.
	c2, err := Train(ct)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c2.Compress(ct)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Ratio() >= 1.0 {
		t.Errorf("ciphertext compressed (ratio %.3f); entropy argument violated", enc.Ratio())
	}
	if plain.Ratio() < enc.Ratio()+0.3 {
		t.Errorf("plaintext (%.3f) should compress far better than ciphertext (%.3f)",
			plain.Ratio(), enc.Ratio())
	}
}

func TestSyntheticProgramSizing(t *testing.T) {
	p := SyntheticProgram(10, 1) // rounds up to one block
	if len(p) != BlockBytes {
		t.Errorf("len = %d, want %d", len(p), BlockBytes)
	}
	p = SyntheticProgram(BlockBytes+1, 1)
	if len(p)%BlockBytes != 0 {
		t.Error("not block aligned")
	}
	// Deterministic per seed.
	if !bytes.Equal(SyntheticProgram(1024, 7), SyntheticProgram(1024, 7)) {
		t.Error("same seed differs")
	}
	if bytes.Equal(SyntheticProgram(1024, 7), SyntheticProgram(1024, 8)) {
		t.Error("different seeds identical")
	}
}

func TestDecodeCycles(t *testing.T) {
	c, _ := trained(t, 4096)
	// One instruction per cycle: a block decodes in BlockInstructions
	// cycles.
	if c.DecodeCyclesPerInstr != 1 {
		t.Errorf("decode rate = %d cycles per instruction, want 1", c.DecodeCyclesPerInstr)
	}
}

func TestImageAccounting(t *testing.T) {
	c, prog := trained(t, 4096)
	im, _ := c.Compress(prog)
	if im.OriginalBytes != 4096 {
		t.Error("original size wrong")
	}
	if im.CompressedBytes() != len(im.Stream)+4*len(im.Index) {
		t.Error("compressed size accounting wrong")
	}
	if len(im.Index) != 4096/BlockBytes {
		t.Errorf("index entries = %d", len(im.Index))
	}
	empty := &Image{}
	if empty.Ratio() != 0 {
		t.Error("empty image ratio should be 0")
	}
}

func BenchmarkCompress(b *testing.B) {
	prog := SyntheticProgram(64*1024, 42)
	c, _ := Train(prog)
	b.SetBytes(int64(len(prog)))
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressBlock(b *testing.B) {
	prog := SyntheticProgram(64*1024, 42)
	c, _ := Train(prog)
	im, _ := c.Compress(prog)
	b.SetBytes(BlockBytes)
	for i := 0; i < b.N; i++ {
		if _, err := c.DecompressBlock(im, i%len(im.Index)); err != nil {
			b.Fatal(err)
		}
	}
}
