package evm

import (
	"agnopol/internal/precompile"
)

// Precompiled-contract interception (DESIGN.md §14). CALLs to the reserved
// low addresses never reach the value-transfer path: both engines divert
// them here before dispatch and run the native implementation from
// internal/precompile over a zero-copy descriptor.
//
// Descriptor ABI: the CALL input region [inOff, inOff+inSize) holds k
// (offset, length) word pairs, each naming a range of interpreter memory;
// the precompile reads those ranges in place (no copying) and writes its
// 32-byte result word at outOff. Gas: the warm-access cost of the CALL
// (reserved addresses are always warm) plus the entry's GasBase +
// GasWord × ⌈referenced bytes / 32⌉, plus ordinary memory expansion for the
// descriptor, every referenced range and the output region.

// maxPrecompileRanges bounds descriptor fan-in; compiled programs never
// emit more than a handful of ranges.
const maxPrecompileRanges = 16

// precompileHost is the engine surface the interception needs. Both the
// u256 interpreter and the test-only big.Int reference (ref_test.go)
// satisfy it, so one shared implementation keeps the two engines
// bit-identical by construction.
type precompileHost interface {
	useGas(amount uint64) bool
	expandMem(off, size uint64) bool
	memSlice(off, size uint64) []byte
	// precompileArgs returns host-owned scratch for the resolved argument
	// ranges. A stack-local buffer would escape through the registry's
	// function-valued entries and cost an allocation per intercepted CALL.
	precompileArgs() *[maxPrecompileRanges][]byte
}

// runPrecompile executes an intercepted CALL. oog=true aborts execution
// with ErrOutOfGas (gas exhausted mid-way, like any other opcode);
// otherwise success is the CALL's 1/0 result: 0 for a malformed descriptor,
// a non-zero value word, or a native-side rejection, with all charged gas
// kept.
func runPrecompile(h precompileHost, p *precompile.Precompiled, valueZero bool, inOff, inSize, outOff, outSize uint64) (success, oog bool) {
	if !h.useGas(GasWarmAccess) {
		return false, true
	}
	if !h.expandMem(inOff, inSize) || !h.expandMem(outOff, outSize) {
		return false, true
	}
	if !valueZero || inSize%64 != 0 {
		return false, false
	}
	pairs := inSize / 64
	if pairs > maxPrecompileRanges {
		return false, false
	}
	if p.Arity != precompile.Variadic && pairs != uint64(p.Arity) {
		return false, false
	}
	// Parse the whole descriptor before expanding any range: expansion may
	// reallocate the backing array under the descriptor slice.
	var offs, lens [maxPrecompileRanges]uint64
	desc := h.memSlice(inOff, inSize)
	for i := uint64(0); i < pairs; i++ {
		var ok bool
		if offs[i], ok = descWord(desc[i*64 : i*64+32]); !ok {
			return false, false
		}
		if lens[i], ok = descWord(desc[i*64+32 : i*64+64]); !ok {
			return false, false
		}
	}
	var total uint64
	for i := uint64(0); i < pairs; i++ {
		if !h.expandMem(offs[i], lens[i]) {
			return false, true
		}
		total += lens[i]
	}
	cost := p.Gas(total)
	if !h.useGas(cost) {
		return false, true
	}
	args := h.precompileArgs()[:pairs]
	for i := uint64(0); i < pairs; i++ {
		args[i] = h.memSlice(offs[i], lens[i])
	}
	res, ok := p.Native(cost, args...)
	if !ok {
		return false, false
	}
	n := uint64(len(res))
	if outSize < n {
		n = outSize
	}
	copy(h.memSlice(outOff, n), res[:n])
	return true, false
}

// descWord decodes a 32-byte descriptor word that must fit in a uint64.
func descWord(b []byte) (uint64, bool) {
	for _, c := range b[:24] {
		if c != 0 {
			return 0, false
		}
	}
	var v uint64
	for _, c := range b[24:] {
		v = v<<8 | uint64(c)
	}
	return v, true
}
