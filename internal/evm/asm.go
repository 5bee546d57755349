package evm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

// Assembler builds EVM bytecode with symbolic labels, the backend target of
// the contract-language compiler.
type Assembler struct {
	code   []byte
	labels map[string]uint64
	fixups []fixup
	err    error
}

type fixup struct {
	at    int // offset of the 2-byte placeholder
	label string
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{labels: make(map[string]uint64)}
}

// Op appends a bare opcode.
func (a *Assembler) Op(ops ...Opcode) *Assembler {
	for _, op := range ops {
		a.code = append(a.code, byte(op))
	}
	return a
}

// PushUint appends the smallest PUSHn that fits v: its minimal big-endian
// bytes, PUSH1 0x00 for zero.
func (a *Assembler) PushUint(v uint64) *Assembler {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return a.PushBytes(b[min(7, bits.LeadingZeros64(v)/8):])
}

// PushBytes pushes up to 32 literal bytes (left-padded semantics of PUSH).
func (a *Assembler) PushBytes(b []byte) *Assembler {
	if len(b) == 0 || len(b) > 32 {
		a.fail(fmt.Errorf("evm: push bytes length %d", len(b)))
		return a
	}
	a.code = append(a.code, byte(PUSH1)+byte(len(b)-1))
	a.code = append(a.code, b...)
	return a
}

// PushLabel pushes the (not yet known) offset of a label using PUSH2.
func (a *Assembler) PushLabel(name string) *Assembler {
	a.code = append(a.code, byte(PUSH1)+1) // PUSH2
	a.fixups = append(a.fixups, fixup{at: len(a.code), label: name})
	a.code = append(a.code, 0, 0)
	return a
}

// Label defines a jump target here and emits its JUMPDEST.
func (a *Assembler) Label(name string) *Assembler {
	if _, dup := a.labels[name]; dup {
		a.fail(fmt.Errorf("evm: duplicate label %q", name))
		return a
	}
	a.labels[name] = uint64(len(a.code))
	a.code = append(a.code, byte(JUMPDEST))
	return a
}

// Jump emits an unconditional jump to label.
func (a *Assembler) Jump(name string) *Assembler {
	return a.PushLabel(name).Op(JUMP)
}

func (a *Assembler) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// Size returns the current code size in bytes.
func (a *Assembler) Size() int { return len(a.code) }

// Assemble resolves labels and returns the final bytecode.
func (a *Assembler) Assemble() ([]byte, error) {
	if a.err != nil {
		return nil, a.err
	}
	if len(a.code) > 0xffff {
		return nil, fmt.Errorf("evm: code size %d exceeds PUSH2 label space", len(a.code))
	}
	out := append([]byte(nil), a.code...)
	for _, f := range a.fixups {
		dest, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("evm: undefined label %q", f.label)
		}
		out[f.at] = byte(dest >> 8)
		out[f.at+1] = byte(dest)
	}
	return out, nil
}

// Disassemble renders bytecode as one instruction per line, for the polc
// tool and for debugging compiled contracts.
func Disassemble(code []byte) string {
	var sb strings.Builder
	for pc := 0; pc < len(code); {
		op := Opcode(code[pc])
		fmt.Fprintf(&sb, "%04x: %s", pc, op)
		if n, ok := op.IsPush(); ok {
			end := pc + 1 + n
			if end > len(code) {
				end = len(code)
			}
			fmt.Fprintf(&sb, " 0x%x", code[pc+1:end])
			pc = end
		} else {
			pc++
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
