package sandbox_test

import (
	"testing"

	"repro/internal/blsapp"
	"repro/internal/pkidir"
	"repro/internal/sandbox"
)

// FuzzModule drives module bytes across the whole sandbox boundary, the
// path a staged update takes: Decode, NewInstance, then Run of the
// module's functions under a gas limit. It is seeded with the two
// applications the trust domains install. Whatever the bytes, each step
// returns a value or an error: nothing panics, a decoded module
// validates, and a module that decodes re-encodes to bytes that decode
// to the same digest.
func FuzzModule(f *testing.F) {
	f.Add(blsapp.ModuleBytes())
	f.Add(pkidir.ModuleBytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := sandbox.Decode(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Decode returned a module that does not validate: %v", err)
		}
		again, err := sandbox.Decode(m.Encode())
		if err != nil || again.Digest() != m.Digest() {
			t.Fatalf("a decoded module does not round-trip (%v)", err)
		}
		// Every import resolves, to a host that takes a name-dependent
		// number of arguments and touches no memory: what is under test is
		// the VM around the call.
		hosts := make(map[string]*sandbox.HostFunc, len(m.HostImports))
		for _, name := range m.HostImports {
			hosts[name] = &sandbox.HostFunc{Name: name, Arity: len(name) % 4, Results: 1, Gas: 10,
				Fn: func(_ *sandbox.Instance, args []int64) ([]int64, error) { return []int64{int64(len(args))}, nil }}
		}
		inst, err := sandbox.NewInstance(m, hosts)
		if err != nil {
			t.Fatalf("a validated module with every import resolved does not instantiate: %v", err)
		}
		// The framework's calling convention: a request offset and length
		// first, zeros after.
		for i, fn := range m.Functions {
			if i == 8 {
				break
			}
			args := make([]int64, fn.NumParams)
			copy(args, []int64{4096, 64})
			_, _ = inst.Run(fn.Name, 100_000, args...)
		}
	})
}
