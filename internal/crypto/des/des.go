// Package des implements the DES and Triple-DES block ciphers (FIPS 46-3)
// from scratch.
//
// DES is the cipher of record for most of the engines the survey covers:
// the General Instrument patent (3-DES in CBC mode), the Dallas DS5240
// ("a true DES or 3-DES block cipher"), and Gilmont's pipelined
// triple-DES. The engine models take their pipeline depth from the
// Rounds constant (16 stages for DES, 48 for EDE3 3-DES); the timing
// itself lives in edu.PipelineTiming. Correctness is cross-checked
// against crypto/des in the tests.
package des

import "fmt"

// BlockSize is the DES block size in bytes.
const BlockSize = 8

// Rounds is the number of Feistel rounds in single DES.
const Rounds = 16

// Standard DES tables (FIPS 46-3). Entries are 1-based bit positions as
// printed in the standard; the permute helper converts.
var initialPermutation = [64]byte{
	58, 50, 42, 34, 26, 18, 10, 2,
	60, 52, 44, 36, 28, 20, 12, 4,
	62, 54, 46, 38, 30, 22, 14, 6,
	64, 56, 48, 40, 32, 24, 16, 8,
	57, 49, 41, 33, 25, 17, 9, 1,
	59, 51, 43, 35, 27, 19, 11, 3,
	61, 53, 45, 37, 29, 21, 13, 5,
	63, 55, 47, 39, 31, 23, 15, 7,
}

var finalPermutation = [64]byte{
	40, 8, 48, 16, 56, 24, 64, 32,
	39, 7, 47, 15, 55, 23, 63, 31,
	38, 6, 46, 14, 54, 22, 62, 30,
	37, 5, 45, 13, 53, 21, 61, 29,
	36, 4, 44, 12, 52, 20, 60, 28,
	35, 3, 43, 11, 51, 19, 59, 27,
	34, 2, 42, 10, 50, 18, 58, 26,
	33, 1, 41, 9, 49, 17, 57, 25,
}

var expansion = [48]byte{
	32, 1, 2, 3, 4, 5,
	4, 5, 6, 7, 8, 9,
	8, 9, 10, 11, 12, 13,
	12, 13, 14, 15, 16, 17,
	16, 17, 18, 19, 20, 21,
	20, 21, 22, 23, 24, 25,
	24, 25, 26, 27, 28, 29,
	28, 29, 30, 31, 32, 1,
}

var pPermutation = [32]byte{
	16, 7, 20, 21, 29, 12, 28, 17,
	1, 15, 23, 26, 5, 18, 31, 10,
	2, 8, 24, 14, 32, 27, 3, 9,
	19, 13, 30, 6, 22, 11, 4, 25,
}

var permutedChoice1 = [56]byte{
	57, 49, 41, 33, 25, 17, 9,
	1, 58, 50, 42, 34, 26, 18,
	10, 2, 59, 51, 43, 35, 27,
	19, 11, 3, 60, 52, 44, 36,
	63, 55, 47, 39, 31, 23, 15,
	7, 62, 54, 46, 38, 30, 22,
	14, 6, 61, 53, 45, 37, 29,
	21, 13, 5, 28, 20, 12, 4,
}

var permutedChoice2 = [48]byte{
	14, 17, 11, 24, 1, 5,
	3, 28, 15, 6, 21, 10,
	23, 19, 12, 4, 26, 8,
	16, 7, 27, 20, 13, 2,
	41, 52, 31, 37, 47, 55,
	30, 40, 51, 45, 33, 48,
	44, 49, 39, 56, 34, 53,
	46, 42, 50, 36, 29, 32,
}

var keyShifts = [16]byte{1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1}

// sBoxes[i][row][col] per FIPS 46-3.
var sBoxes = [8][4][16]byte{
	{
		{14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7},
		{0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8},
		{4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0},
		{15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13},
	},
	{
		{15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10},
		{3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5},
		{0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15},
		{13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9},
	},
	{
		{10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8},
		{13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1},
		{13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7},
		{1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12},
	},
	{
		{7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15},
		{13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9},
		{10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4},
		{3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14},
	},
	{
		{2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9},
		{14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6},
		{4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14},
		{11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3},
	},
	{
		{12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11},
		{10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8},
		{9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6},
		{4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13},
	},
	{
		{4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1},
		{13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6},
		{1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2},
		{6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12},
	},
	{
		{13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7},
		{1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2},
		{7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8},
		{2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11},
	},
}

// permute applies a 1-based source-bit table to src, producing a value
// with len(table) bits. Bit 1 of src is its most significant bit of
// width, matching the numbering convention of FIPS 46-3.
func permute(src uint64, width uint, table []byte) uint64 {
	var out uint64
	for _, pos := range table {
		out <<= 1
		out |= (src >> (width - uint(pos))) & 1
	}
	return out
}

// KeySizeError reports an unsupported key length.
type KeySizeError int

func (k KeySizeError) Error() string {
	return fmt.Sprintf("des: invalid key size %d", int(k))
}

// Cipher is a single-DES instance with its 16 expanded subkeys.
type Cipher struct {
	subkeys [Rounds]uint64 // 48-bit round keys
}

// New expands an 8-byte key (parity bits ignored, as hardware does) into
// a DES instance.
func New(key []byte) (*Cipher, error) {
	if len(key) != 8 {
		return nil, KeySizeError(len(key))
	}
	c := &Cipher{}
	c.expandKey(beUint64(key))
	return c, nil
}

func beUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putBeUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

func (c *Cipher) expandKey(key uint64) {
	k56 := permute(key, 64, permutedChoice1[:])
	cHalf := uint32(k56 >> 28)
	dHalf := uint32(k56 & 0x0fffffff)
	for r := 0; r < Rounds; r++ {
		s := uint(keyShifts[r])
		cHalf = ((cHalf << s) | (cHalf >> (28 - s))) & 0x0fffffff
		dHalf = ((dHalf << s) | (dHalf >> (28 - s))) & 0x0fffffff
		cd := uint64(cHalf)<<28 | uint64(dHalf)
		c.subkeys[r] = permute(cd, 56, permutedChoice2[:])
	}
}

// BlockSize returns 8.
func (c *Cipher) BlockSize() int { return BlockSize }

// feistel is the DES round function f(R, K).
func feistel(r uint32, subkey uint64) uint32 {
	e := permute(uint64(r), 32, expansion[:]) // 48 bits
	x := e ^ subkey
	var out uint32
	for i := 0; i < 8; i++ {
		six := byte(x >> (uint(7-i) * 6) & 0x3f)
		row := (six&0x20)>>4 | six&1
		col := (six >> 1) & 0x0f
		out = out<<4 | uint32(sBoxes[i][row][col])
	}
	return uint32(permute(uint64(out), 32, pPermutation[:]))
}

// Encrypt encrypts one 8-byte block.
func (c *Cipher) Encrypt(dst, src []byte) { c.crypt(dst, src, false) }

// Decrypt decrypts one 8-byte block.
func (c *Cipher) Decrypt(dst, src []byte) { c.crypt(dst, src, true) }

func (c *Cipher) crypt(dst, src []byte, decrypt bool) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("des: input not full block")
	}
	v := permute(beUint64(src), 64, initialPermutation[:])
	l, r := uint32(v>>32), uint32(v)
	for i := 0; i < Rounds; i++ {
		k := c.subkeys[i]
		if decrypt {
			k = c.subkeys[Rounds-1-i]
		}
		l, r = r, l^feistel(r, k)
	}
	// Swap halves before the final permutation (the "pre-output" R16L16).
	out := permute(uint64(r)<<32|uint64(l), 64, finalPermutation[:])
	putBeUint64(dst, out)
}

// TripleCipher is EDE triple DES. With a 16-byte key it runs EDE2
// (K1,K2,K1); with a 24-byte key, EDE3 (K1,K2,K3). Both variants appear
// in the surveyed products.
type TripleCipher struct {
	c1, c2, c3 *Cipher
}

// NewTriple builds a 3-DES instance from a 16- or 24-byte key.
func NewTriple(key []byte) (*TripleCipher, error) {
	switch len(key) {
	case 16:
		key = append(append([]byte{}, key...), key[:8]...)
	case 24:
		// as is
	default:
		return nil, KeySizeError(len(key))
	}
	c1, err := New(key[0:8])
	if err != nil {
		return nil, err
	}
	c2, err := New(key[8:16])
	if err != nil {
		return nil, err
	}
	c3, err := New(key[16:24])
	if err != nil {
		return nil, err
	}
	return &TripleCipher{c1, c2, c3}, nil
}

// BlockSize returns 8.
func (t *TripleCipher) BlockSize() int { return BlockSize }

// Encrypt performs EDE encryption of one block.
func (t *TripleCipher) Encrypt(dst, src []byte) {
	var tmp [BlockSize]byte
	t.c1.Encrypt(tmp[:], src)
	t.c2.Decrypt(tmp[:], tmp[:])
	t.c3.Encrypt(dst, tmp[:])
}

// Decrypt performs EDE decryption of one block.
func (t *TripleCipher) Decrypt(dst, src []byte) {
	var tmp [BlockSize]byte
	t.c3.Decrypt(tmp[:], src)
	t.c2.Encrypt(tmp[:], tmp[:])
	t.c1.Decrypt(dst, tmp[:])
}
