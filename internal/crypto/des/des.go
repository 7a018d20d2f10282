// Package des provides the DES and Triple-DES block ciphers (FIPS 46-3)
// the surveyed engines are built on, backed by the standard library's
// crypto/des.
//
// DES is the cipher of record for most of the engines the survey covers:
// the General Instrument patent (3-DES in CBC mode), the Dallas DS5240
// ("a true DES or 3-DES block cipher"), and Gilmont's pipelined
// triple-DES. The engine models take their pipeline depth from the
// Rounds constant (16 stages for DES, 48 for EDE3 3-DES); the timing
// itself lives in edu.PipelineTiming. The tests hold the ciphers to
// published known-answer vectors.
package des

import (
	"crypto/cipher"
	stddes "crypto/des"
)

// BlockSize is the DES block size in bytes.
const BlockSize = stddes.BlockSize

// Rounds is the number of Feistel rounds in single DES.
const Rounds = 16

// KeySizeError reports an unsupported key length.
type KeySizeError = stddes.KeySizeError

// New builds a single-DES instance from an 8-byte key (parity bits
// ignored, as hardware does).
func New(key []byte) (cipher.Block, error) {
	return stddes.NewCipher(key)
}

// NewTriple builds an EDE triple-DES instance. A 16-byte key runs EDE2
// (K1,K2,K1); a 24-byte key, EDE3 (K1,K2,K3). Both variants appear in
// the surveyed products.
func NewTriple(key []byte) (cipher.Block, error) {
	switch len(key) {
	case 16:
		key = append(key[:16:16], key[:8]...)
	case 24:
	default:
		return nil, KeySizeError(len(key))
	}
	return stddes.NewTripleDESCipher(key)
}
