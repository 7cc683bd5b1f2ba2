package sandbox

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Trap describes why sandboxed execution aborted. Traps never propagate
// host state corruption: the instance is simply dead.
type Trap struct {
	Reason string
	PC     int
	Func   string
}

func (t *Trap) Error() string {
	return fmt.Sprintf("sandbox trap in %s at pc %d: %s", t.Func, t.PC, t.Reason)
}

// Common execution errors.
var (
	ErrOutOfGas      = errors.New("sandbox: out of gas")
	ErrStackOverflow = errors.New("sandbox: value stack overflow")
	ErrCallDepth     = errors.New("sandbox: call depth exceeded")
)

// Execution limits.
const (
	maxValueStack = 1 << 16
	maxCallDepth  = 256
)

// HostFunc is a function the embedder exposes to sandboxed code. It
// receives the instance (for controlled memory access) and the popped
// arguments, and returns results to push. Errors trap the instance.
type HostFunc struct {
	Name    string
	Arity   int
	Results int
	Gas     uint64 // extra gas charged per invocation
	Fn      func(inst *Instance, args []int64) ([]int64, error)
}

// Instance is an instantiated module: its own linear memory plus bound
// host functions. An Instance is not safe for concurrent use.
type Instance struct {
	module *Module
	mem    []byte
	hosts  []*HostFunc

	gasLimit uint64
	gasUsed  uint64
}

// NewInstance instantiates a validated module, binding each host import
// by name from the provided registry.
func NewInstance(m *Module, hostRegistry map[string]*HostFunc) (*Instance, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	inst := &Instance{
		module: m,
		mem:    make([]byte, m.MemoryBytes),
	}
	for _, name := range m.HostImports {
		h, ok := hostRegistry[name]
		if !ok {
			return nil, fmt.Errorf("sandbox: unresolved host import %q", name)
		}
		inst.hosts = append(inst.hosts, h)
	}
	for _, d := range m.Data {
		copy(inst.mem[d.Offset:], d.Bytes)
	}
	return inst, nil
}

// ReadMemory copies n bytes at off out of guest memory.
func (inst *Instance) ReadMemory(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > len(inst.mem) {
		return nil, fmt.Errorf("sandbox: memory read [%d,%d) out of bounds", off, off+n)
	}
	out := make([]byte, n)
	copy(out, inst.mem[off:])
	return out, nil
}

// WriteMemory copies b into guest memory at off.
func (inst *Instance) WriteMemory(off int, b []byte) error {
	if off < 0 || off+len(b) > len(inst.mem) {
		return fmt.Errorf("sandbox: memory write [%d,%d) out of bounds", off, off+len(b))
	}
	copy(inst.mem[off:], b)
	return nil
}

// Run invokes the named function with the given arguments under a gas
// limit, returning the function's results.
func (inst *Instance) Run(fn string, gasLimit uint64, args ...int64) ([]int64, error) {
	fi, err := inst.module.FunctionIndex(fn)
	if err != nil {
		return nil, err
	}
	f := &inst.module.Functions[fi]
	if len(args) != f.NumParams {
		return nil, fmt.Errorf("sandbox: %q takes %d args, got %d", fn, f.NumParams, len(args))
	}
	inst.gasLimit = gasLimit
	inst.gasUsed = 0
	stack := make([]int64, 0, 1024)
	res, err := inst.call(fi, args, &stack, 0)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// call executes function fi with args as the leading locals.
func (inst *Instance) call(fi int, args []int64, stack *[]int64, depth int) ([]int64, error) {
	if depth > maxCallDepth {
		return nil, ErrCallDepth
	}
	f := &inst.module.Functions[fi]
	locals := make([]int64, f.NumParams+f.NumLocals)
	copy(locals, args)
	base := len(*stack)

	trap := func(pc int, format string, a ...any) error {
		return &Trap{Reason: fmt.Sprintf(format, a...), PC: pc, Func: f.Name}
	}

	pop := func() (int64, bool) {
		s := *stack
		if len(s) <= base {
			return 0, false
		}
		v := s[len(s)-1]
		*stack = s[:len(s)-1]
		return v, true
	}
	push := func(v int64) error {
		if len(*stack) >= maxValueStack {
			return ErrStackOverflow
		}
		*stack = append(*stack, v)
		return nil
	}

	pc := 0
	for {
		if pc < 0 || pc >= len(f.Code) {
			return nil, trap(pc, "program counter out of range")
		}
		in := f.Code[pc]
		inst.gasUsed += in.Op.Gas()
		if inst.gasUsed > inst.gasLimit {
			return nil, ErrOutOfGas
		}

		switch in.Op {
		case OpNop:
		case OpPush:
			if err := push(in.Imm); err != nil {
				return nil, err
			}
		case OpDrop:
			if _, ok := pop(); !ok {
				return nil, trap(pc, "stack underflow")
			}
		case OpDup:
			s := *stack
			if len(s) <= base {
				return nil, trap(pc, "stack underflow")
			}
			if err := push(s[len(s)-1]); err != nil {
				return nil, err
			}
		case OpSwap:
			s := *stack
			if len(s) < base+2 {
				return nil, trap(pc, "stack underflow")
			}
			s[len(s)-1], s[len(s)-2] = s[len(s)-2], s[len(s)-1]

		case OpAdd, OpSub, OpMul, OpDivS, OpRemS, OpAnd, OpOr, OpXor,
			OpShl, OpShrU, OpShrS, OpEq, OpNe, OpLtS, OpLtU, OpGtS, OpLeS, OpGeS:
			b, ok1 := pop()
			a, ok2 := pop()
			if !ok1 || !ok2 {
				return nil, trap(pc, "stack underflow")
			}
			v, err := binop(in.Op, a, b)
			if err != nil {
				return nil, trap(pc, "%v", err)
			}
			if err := push(v); err != nil {
				return nil, err
			}
		case OpEqz:
			a, ok := pop()
			if !ok {
				return nil, trap(pc, "stack underflow")
			}
			if err := push(boolToInt(a == 0)); err != nil {
				return nil, err
			}

		case OpBr:
			pc = int(in.Imm)
			continue
		case OpBrIf:
			c, ok := pop()
			if !ok {
				return nil, trap(pc, "stack underflow")
			}
			if c != 0 {
				pc = int(in.Imm)
				continue
			}

		case OpCall:
			callee := &inst.module.Functions[in.Imm]
			cargs := make([]int64, callee.NumParams)
			for i := callee.NumParams - 1; i >= 0; i-- {
				v, ok := pop()
				if !ok {
					return nil, trap(pc, "stack underflow passing args to %q", callee.Name)
				}
				cargs[i] = v
			}
			res, err := inst.call(int(in.Imm), cargs, stack, depth+1)
			if err != nil {
				return nil, err
			}
			for _, v := range res {
				if err := push(v); err != nil {
					return nil, err
				}
			}

		case OpRet, OpHalt:
			res := make([]int64, f.NumResults)
			for i := f.NumResults - 1; i >= 0; i-- {
				v, ok := pop()
				if !ok {
					return nil, trap(pc, "stack underflow returning results")
				}
				res[i] = v
			}
			// Discard any extra values this frame left behind.
			*stack = (*stack)[:base]
			return res, nil

		case OpLocalGet:
			if err := push(locals[in.Imm]); err != nil {
				return nil, err
			}
		case OpLocalSet:
			v, ok := pop()
			if !ok {
				return nil, trap(pc, "stack underflow")
			}
			locals[in.Imm] = v

		case OpLoad8:
			addr, ok := pop()
			if !ok {
				return nil, trap(pc, "stack underflow")
			}
			if addr < 0 || addr >= int64(len(inst.mem)) {
				return nil, trap(pc, "load8 out of bounds at %d", addr)
			}
			if err := push(int64(inst.mem[addr])); err != nil {
				return nil, err
			}
		case OpLoad64:
			addr, ok := pop()
			if !ok {
				return nil, trap(pc, "stack underflow")
			}
			if addr < 0 || addr+8 > int64(len(inst.mem)) {
				return nil, trap(pc, "load64 out of bounds at %d", addr)
			}
			v := binary.LittleEndian.Uint64(inst.mem[addr:])
			if err := push(int64(v)); err != nil {
				return nil, err
			}
		case OpStore8:
			v, ok1 := pop()
			addr, ok2 := pop()
			if !ok1 || !ok2 {
				return nil, trap(pc, "stack underflow")
			}
			if addr < 0 || addr >= int64(len(inst.mem)) {
				return nil, trap(pc, "store8 out of bounds at %d", addr)
			}
			inst.mem[addr] = byte(v)
		case OpStore64:
			v, ok1 := pop()
			addr, ok2 := pop()
			if !ok1 || !ok2 {
				return nil, trap(pc, "stack underflow")
			}
			if addr < 0 || addr+8 > int64(len(inst.mem)) {
				return nil, trap(pc, "store64 out of bounds at %d", addr)
			}
			binary.LittleEndian.PutUint64(inst.mem[addr:], uint64(v))
		case OpMemSize:
			if err := push(int64(len(inst.mem))); err != nil {
				return nil, err
			}

		case OpHostCall:
			h := inst.hosts[in.Imm]
			inst.gasUsed += h.Gas
			if inst.gasUsed > inst.gasLimit {
				return nil, ErrOutOfGas
			}
			hargs := make([]int64, h.Arity)
			for i := h.Arity - 1; i >= 0; i-- {
				v, ok := pop()
				if !ok {
					return nil, trap(pc, "stack underflow passing args to host %q", h.Name)
				}
				hargs[i] = v
			}
			res, err := h.Fn(inst, hargs)
			if err != nil {
				return nil, trap(pc, "host %q: %v", h.Name, err)
			}
			if len(res) != h.Results {
				return nil, trap(pc, "host %q returned %d results, declared %d", h.Name, len(res), h.Results)
			}
			for _, v := range res {
				if err := push(v); err != nil {
					return nil, err
				}
			}

		default:
			return nil, trap(pc, "unimplemented opcode %s", in.Op)
		}
		pc++
	}
}

func binop(op Op, a, b int64) (int64, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDivS:
		if b == 0 {
			return 0, errors.New("integer divide by zero")
		}
		if a == -1<<63 && b == -1 {
			return 0, errors.New("integer overflow in division")
		}
		return a / b, nil
	case OpRemS:
		if b == 0 {
			return 0, errors.New("integer remainder by zero")
		}
		if a == -1<<63 && b == -1 {
			return 0, nil
		}
		return a % b, nil
	case OpAnd:
		return a & b, nil
	case OpOr:
		return a | b, nil
	case OpXor:
		return a ^ b, nil
	case OpShl:
		return a << (uint64(b) & 63), nil
	case OpShrU:
		return int64(uint64(a) >> (uint64(b) & 63)), nil
	case OpShrS:
		return a >> (uint64(b) & 63), nil
	case OpEq:
		return boolToInt(a == b), nil
	case OpNe:
		return boolToInt(a != b), nil
	case OpLtS:
		return boolToInt(a < b), nil
	case OpLtU:
		return boolToInt(uint64(a) < uint64(b)), nil
	case OpGtS:
		return boolToInt(a > b), nil
	case OpLeS:
		return boolToInt(a <= b), nil
	case OpGeS:
		return boolToInt(a >= b), nil
	}
	return 0, fmt.Errorf("not a binary op: %s", op)
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
