// Package rsa implements textbook RSA over math/big, sufficient to
// exercise the survey's Figure 1 protocol: the chip manufacturer embeds
// a private key Dm in the secure processor's non-volatile memory and
// publishes Em; a software editor wraps the symmetric session key K under
// Em; only the processor can unwrap it.
//
// SECURITY NOTE: this is a modeling artifact, not a production
// cryptosystem — keygen uses a caller-seeded deterministic PRNG so
// experiments are reproducible, the padding is a simple length-framed
// random pad (not OAEP), and nothing is constant-time. The repository's
// purpose is simulating 2005-era bus-encryption architectures, and
// Figure 1 only needs the mathematical trapdoor property.
package rsa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
)

// PublicKey is Em: the modulus and public exponent.
type PublicKey struct {
	N *big.Int
	E *big.Int
}

// PrivateKey is Dm plus its public half.
type PrivateKey struct {
	PublicKey
	D *big.Int
}

// Bits returns the modulus size in bits.
func (k *PublicKey) Bits() int { return k.N.BitLen() }

// GenerateKey produces an RSA keypair with a modulus of the given bit
// size (>= 128; use >= 512 for anything resembling realism) from the
// deterministic source rng.
func GenerateKey(rng *rand.Rand, bits int) (*PrivateKey, error) {
	if bits < 128 {
		return nil, fmt.Errorf("rsa: modulus size %d too small (min 128)", bits)
	}
	e := big.NewInt(65537)
	one := big.NewInt(1)
	for attempt := 0; attempt < 1000; attempt++ {
		p := genPrime(rng, bits/2)
		q := genPrime(rng, bits-bits/2)
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue // e shares a factor with phi; re-draw primes
		}
		return &PrivateKey{PublicKey: PublicKey{N: n, E: e}, D: d}, nil
	}
	return nil, errors.New("rsa: key generation did not converge")
}

// genPrime draws random odd candidates of exactly the requested bit size
// until ProbablyPrime accepts one.
func genPrime(rng *rand.Rand, bits int) *big.Int {
	bytesLen := (bits + 7) / 8
	buf := make([]byte, bytesLen)
	for {
		rng.Read(buf)
		p := new(big.Int).SetBytes(buf)
		// Force exact bit length and oddness; setting the top TWO bits
		// guarantees the product of two such primes reaches the full
		// modulus width (p·q ≥ (3·2^(b-2))² = 9·2^(2b-4) > 2^(2b-1)).
		p.SetBit(p, bits-1, 1)
		p.SetBit(p, bits-2, 1)
		p.SetBit(p, 0, 1)
		p.SetBit(p, bits, 0)
		if p.BitLen() != bits {
			continue
		}
		if p.ProbablyPrime(32) {
			return p
		}
	}
}

// maxPayload returns the largest message Encrypt accepts for key k:
// modulus bytes minus 2 framing bytes minus 8 pad bytes.
func maxPayload(k *PublicKey) int {
	return (k.Bits()+7)/8 - 2 - 8
}

// Encrypt wraps msg under pub. The plaintext is framed as
// [len:2][msg][random pad] so decryption can strip the pad; rng supplies
// the pad bytes (deterministic for reproducible experiments).
func Encrypt(rng *rand.Rand, pub *PublicKey, msg []byte) ([]byte, error) {
	maxLen := maxPayload(pub)
	if len(msg) > maxLen {
		return nil, fmt.Errorf("rsa: message %d bytes exceeds max %d for %d-bit key", len(msg), maxLen, pub.Bits())
	}
	k := (pub.Bits() + 7) / 8
	frame := make([]byte, k-1) // strictly less than the modulus
	binary.BigEndian.PutUint16(frame[:2], uint16(len(msg)))
	copy(frame[2:], msg)
	rng.Read(frame[2+len(msg):])
	m := new(big.Int).SetBytes(frame)
	c := new(big.Int).Exp(m, pub.E, pub.N)
	out := make([]byte, k)
	c.FillBytes(out)
	return out, nil
}

// Decrypt unwraps ct with priv, returning the original message.
func Decrypt(priv *PrivateKey, ct []byte) ([]byte, error) {
	c := new(big.Int).SetBytes(ct)
	if c.Cmp(priv.N) >= 0 {
		return nil, errors.New("rsa: ciphertext out of range")
	}
	m := new(big.Int).Exp(c, priv.D, priv.N)
	k := (priv.Bits() + 7) / 8
	frame := make([]byte, k-1)
	if m.BitLen() > 8*(k-1) {
		// A correctly framed plaintext always fits k-1 bytes; anything
		// larger means the wrong key or a mangled ciphertext.
		return nil, errors.New("rsa: corrupt frame")
	}
	m.FillBytes(frame)
	n := int(binary.BigEndian.Uint16(frame[:2]))
	if n > len(frame)-2 {
		return nil, errors.New("rsa: corrupt frame")
	}
	return append([]byte{}, frame[2:2+n]...), nil
}
