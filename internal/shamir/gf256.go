// Package shamir implements Shamir secret sharing over GF(256), used by
// the secret-key backup application from the paper's introduction (Fig 1):
// a user splits an arbitrary byte-string secret across trust domains so
// that any t shares reconstruct it and t-1 reveal nothing.
package shamir

// GF(256) with the AES reduction polynomial x^8 + x^4 + x^3 + x + 1 (0x11b).
// Log/antilog tables built at init from the generator 0x03.

var (
	gfExp [512]byte
	gfLog [256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		// multiply x by the generator 0x03 = x + 1: x*3 = x*2 ^ x
		y := mulNoTable(x, 3)
		x = y
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// mulNoTable is carry-less multiplication mod 0x11b, used only to build
// the tables (and in tests as a reference).
func mulNoTable(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// gfAdd is addition in GF(256) (XOR).
func gfAdd(a, b byte) byte { return a ^ b }

// gfMul multiplies in GF(256) via the log tables.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b; division by zero panics.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("shamir: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[(int(gfLog[a])+255-int(gfLog[b]))%255]
}
