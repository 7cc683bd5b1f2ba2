package ff

// The amd64 field kernels live in fp_amd64.s. Add and Sub are baseline
// x86-64 and always run there; the multiply needs MULX (BMI2) and
// ADCX/ADOX (ADX), so Fp.Mul takes it only when fpMulADX says the CPU
// has both.

//go:noescape
func fpMontMulADX(z, a, b *Fp)

//go:noescape
func fpAdd(z, a, b *Fp)

//go:noescape
func fpSub(z, a, b *Fp)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuHasADX reports whether CPUID leaf 7 lists both BMI2 (EBX bit 8)
// and ADX (EBX bit 19).
func cpuHasADX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}

func fpMul(z, a, b *Fp) {
	if fpMulADX {
		fpMontMulADX(z, a, b)
		return
	}
	fpMontMul(z, a, b)
}
