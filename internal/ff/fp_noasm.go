//go:build !amd64

package ff

// Without assembly, the field kernels are the Go ones.

func cpuHasADX() bool { return false }

func fpMul(z, a, b *Fp) { fpMontMul(z, a, b) }

func fpAdd(z, a, b *Fp) { fpAddGo(z, a, b) }

func fpSub(z, a, b *Fp) { fpSubGo(z, a, b) }
