package lang

import (
	"fmt"

	"agnopol/internal/evm"
	"agnopol/internal/polcrypto"
	"agnopol/internal/precompile"
)

// EVM backend.
//
// Memory layout of generated code:
//
//	0x00–0x3f  hash scratch (map-slot derivation, digests)
//	0x40       free-memory pointer
//	0x60–0x11f loop scratch: src(0x60) dst(0x80) len(0xa0) i(0xc0) tmp(0xe0,0x100)
//	0x120–     bump-allocated heap for bytes values
//
// Storage layout:
//
//	slot 0            deployed flag
//	slot 1+i          global i (bytes globals store 2·len+1; chunks at keccak(slot)+j)
//	keccak(key‖tag)   map entry marker for map with tag 0x100+index
//	                  (TUInt values store 2·v+1; TBytes store 2·len+1 with
//	                  chunks at keccak(marker-slot)+j)
//
// Bytes values live on the stack as an (offset, length) pair with length on
// top. The ABI is 4-byte selector (first 4 bytes of the method-name hash)
// followed by 32-byte head words; bytes arguments put a tail offset in the
// head and length+data in the tail, as in Solidity's ABI.

const (
	heapStart    = 0x120
	scratchSrc   = 0x60
	scratchDst   = 0x80
	scratchLen   = 0xa0
	scratchI     = 0xc0
	deployedSlot = 0
	mapTagBase   = 0x100
)

// Selector returns the 4-byte method selector for a name.
func Selector(name string) [4]byte {
	h := polcrypto.Hash([]byte("method:" + name))
	var s [4]byte
	copy(s[:], h[:4])
	return s
}

// CtorMethodName is the pseudo-method the chain invokes at deployment.
const CtorMethodName = "ctor"

type evmCompiler struct {
	p      *Program
	asm    *evm.Assembler
	params []Param
	seq    int
	err    error
}

// CompileEVM lowers a checked program to EVM bytecode.
func CompileEVM(p *Program) ([]byte, error) {
	c := &evmCompiler{p: p, asm: evm.NewAssembler()}
	c.emitEntry()
	c.emitCtor()
	for _, a := range p.APIs {
		c.emitAPI(a)
	}
	for _, v := range p.Views {
		c.emitView(v)
	}
	c.emitRevertSite()
	if c.err != nil {
		return nil, c.err
	}
	return c.asm.Assemble()
}

func (c *evmCompiler) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("lang/evm: "+format, args...)
	}
}

func (c *evmCompiler) label(prefix string) string {
	c.seq++
	return fmt.Sprintf("%s_%d", prefix, c.seq)
}

func (c *evmCompiler) globalSlot(name string) uint64 {
	gi, err := c.p.globalIndex(name)
	if err != nil {
		c.fail("%v", err)
		return 0
	}
	return evmGlobalSlot(gi)
}

func (c *evmCompiler) typeOf(e Expr) Type {
	ch := &checker{p: c.p, params: c.params}
	t := ch.typeOf(e, "codegen")
	if len(ch.errs) > 0 {
		c.fail("%v", ch.errs[0])
	}
	return t
}

// emitEntry sets up the free pointer and dispatches on the selector.
func (c *evmCompiler) emitEntry() {
	a := c.asm
	a.PushUint(heapStart).PushUint(0x40).Op(evm.MSTORE)
	// selector = calldata[0] >> 224
	a.PushUint(0).Op(evm.CALLDATALOAD).PushUint(224).Op(evm.SHR)
	dispatch := func(name, label string) {
		sel := Selector(name)
		a.Op(evm.DUP1).PushBytes(sel[:]).Op(evm.EQ).PushLabel(label).Op(evm.JUMPI)
	}
	dispatch(CtorMethodName, "m_ctor")
	for _, api := range c.p.APIs {
		dispatch(api.Name, "m_api_"+api.Name)
	}
	for _, v := range c.p.Views {
		dispatch(v.Name, "m_view_"+v.Name)
	}
	a.Jump("revert0")
}

func (c *evmCompiler) emitCtor() {
	a := c.asm
	c.params = c.p.Ctor.Params
	a.Label("m_ctor").Op(evm.POP)
	// Deploy-once guard.
	a.PushUint(deployedSlot).Op(evm.SLOAD).PushLabel("revert0").Op(evm.JUMPI)
	a.PushUint(1).PushUint(deployedSlot).Op(evm.SSTORE)
	// The constructor does not accept value.
	a.Op(evm.CALLVALUE).PushLabel("revert0").Op(evm.JUMPI)
	c.stmts(c.p.Ctor.Body)
	a.Op(evm.STOP)
}

func (c *evmCompiler) emitAPI(api *API) {
	a := c.asm
	c.params = api.Params
	a.Label("m_api_" + api.Name).Op(evm.POP)
	c.emitDeployedGuard()
	if api.Pay == nil {
		a.Op(evm.CALLVALUE).PushLabel("revert0").Op(evm.JUMPI)
	} else {
		c.expr(api.Pay)
		a.Op(evm.CALLVALUE, evm.EQ, evm.ISZERO).PushLabel("revert0").Op(evm.JUMPI)
	}
	c.stmts(api.Body)
	// Type checker guarantees every path returned; a trailing STOP is
	// unreachable but keeps the method well-terminated.
	a.Op(evm.STOP)
}

func (c *evmCompiler) emitView(v View) {
	a := c.asm
	c.params = nil
	a.Label("m_view_" + v.Name).Op(evm.POP)
	c.emitDeployedGuard()
	c.expr(v.Expr)
	c.emitReturnValue(c.typeOf(v.Expr))
}

func (c *evmCompiler) emitDeployedGuard() {
	c.asm.PushUint(deployedSlot).Op(evm.SLOAD, evm.ISZERO).PushLabel("revert0").Op(evm.JUMPI)
}

func (c *evmCompiler) emitRevertSite() {
	c.asm.Label("revert0").PushUint(0).PushUint(0).Op(evm.REVERT)
}

func (c *evmCompiler) stmts(body []Stmt) {
	for _, s := range body {
		c.stmt(s)
	}
}

//nolint:gocyclo // statement-by-statement code generation.
func (c *evmCompiler) stmt(s Stmt) {
	a := c.asm
	switch s := s.(type) {
	case *Assume, *Require:
		var cond Expr
		if as, ok := s.(*Assume); ok {
			cond = as.Cond
		} else {
			cond = s.(*Require).Cond
		}
		c.expr(cond)
		a.Op(evm.ISZERO).PushLabel("revert0").Op(evm.JUMPI)

	case *SetGlobal:
		slot := c.globalSlot(s.Name)
		if c.typeOf(s.Value) == TBytes {
			c.expr(s.Value) // [off, len]
			a.PushUint(slot)
			c.emitStoreBytesAtMarkerSlot() // consumes [off, len, slot]
		} else {
			c.expr(s.Value)
			a.PushUint(slot).Op(evm.SSTORE)
		}

	case *MapSet:
		mi, err := c.p.mapIndex(s.Map)
		if err != nil {
			c.fail("%v", err)
			return
		}
		vt := c.p.Maps[mi].Value
		c.expr(s.Key)
		c.emitMapBase(mi) // [base]
		if vt == TBytes {
			c.expr(s.Value) // [base, off, len]
			// Reorder to [off, len, base]: SWAP1 gives [base, len, off],
			// SWAP2 swaps off with base.
			a.Op(evm.SWAP1, evm.SWAP2)
			c.emitStoreBytesAtMarkerSlot()
		} else {
			c.expr(s.Value)                                  // [base, v]
			a.PushUint(1).Op(evm.SHL).PushUint(1).Op(evm.OR) // marker = v<<1|1
			a.Op(evm.SWAP1, evm.SSTORE)                      // SSTORE(key=base, value=marker)
		}

	case *MapDel:
		mi, err := c.p.mapIndex(s.Map)
		if err != nil {
			c.fail("%v", err)
			return
		}
		c.expr(s.Key)
		c.emitMapBase(mi) // [base]
		if c.p.Maps[mi].Value == TBytes {
			// len -> scratchLen, dataBase -> scratchDst, zero chunks.
			a.Op(evm.DUP1, evm.SLOAD).PushUint(1).Op(evm.SHR).PushUint(scratchLen).Op(evm.MSTORE)
			a.Op(evm.DUP1).PushUint(0).Op(evm.MSTORE).PushUint(32).PushUint(0).Op(evm.KECCAK256).PushUint(scratchDst).Op(evm.MSTORE)
			a.PushUint(0).Op(evm.SWAP1, evm.SSTORE) // zero the marker
			c.emitLoopZeroStorage()
		} else {
			a.PushUint(0).Op(evm.SWAP1, evm.SSTORE)
		}

	case *Transfer:
		// CALL pops gas, to, value, inOff, inSize, outOff, outSize.
		// Expressions are pure, so build the stack bottom-up: the four
		// zero memory args first, then value, to, and a zero gas stipend.
		a.PushUint(0).PushUint(0).PushUint(0).PushUint(0) // outSize outOff inSize inOff
		c.expr(s.Amount)                                  // [.., value]
		c.expr(s.To)                                      // [.., value, to]
		a.PushUint(0).Op(evm.CALL)                        // [success]
		a.Op(evm.ISZERO).PushLabel("revert0").Op(evm.JUMPI)

	case *If:
		elseL := c.label("else")
		endL := c.label("endif")
		c.expr(s.Cond)
		a.Op(evm.ISZERO).PushLabel(elseL).Op(evm.JUMPI)
		c.stmts(s.Then)
		if !terminates(s.Then) {
			a.Jump(endL)
		}
		a.Label(elseL)
		c.stmts(s.Else)
		a.Label(endL)

	case *Emit:
		topic := polcrypto.Hash([]byte("event:" + s.Event))
		if c.typeOf(s.Value) == TBytes {
			c.expr(s.Value) // [off, len]
			a.PushBytes(topic[:])
			a.Op(evm.SWAP2) // [topic, len, off]
			a.Op(evm.LOG1)
		} else {
			c.expr(s.Value)
			a.PushUint(0).Op(evm.MSTORE)
			a.PushBytes(topic[:]).PushUint(32).PushUint(0).Op(evm.LOG1)
		}

	case *Return:
		t := c.typeOf(s.Value)
		c.expr(s.Value)
		c.emitReturnValue(t)

	default:
		c.fail("unknown statement %T", s)
	}
}

// terminates reports whether every path of the block ends in Return.
func terminates(body []Stmt) bool {
	for _, s := range body {
		switch s := s.(type) {
		case *Return:
			return true
		case *If:
			if terminates(s.Then) && terminates(s.Else) {
				return true
			}
		}
	}
	return false
}

func (c *evmCompiler) emitReturnValue(t Type) {
	a := c.asm
	if t == TBytes {
		a.Op(evm.SWAP1, evm.RETURN) // RETURN(off, len)
		return
	}
	a.PushUint(0).Op(evm.MSTORE).PushUint(32).PushUint(0).Op(evm.RETURN)
}

// emitMapBase consumes [key] and leaves [base] = keccak(key ‖ tag).
func (c *evmCompiler) emitMapBase(mapIndex int) {
	a := c.asm
	a.PushUint(0).Op(evm.MSTORE)
	a.PushUint(uint64(mapTagBase + mapIndex)).PushUint(0x20).Op(evm.MSTORE)
	a.PushUint(0x40).PushUint(0).Op(evm.KECCAK256)
}

// emitStoreBytesAtMarkerSlot consumes [off, len, slot]: writes marker
// 2·len+1 at slot and the chunks at keccak(slot)+j.
func (c *evmCompiler) emitStoreBytesAtMarkerSlot() {
	a := c.asm
	// [off, len, slot]
	a.Op(evm.DUP2).PushUint(1).Op(evm.SHL).PushUint(1).Op(evm.OR) // [off,len,slot,marker]
	a.Op(evm.DUP2, evm.SSTORE)                                    // SSTORE(key=slot,value=marker); [off,len,slot]
	a.PushUint(0).Op(evm.MSTORE)                                  // mem[0]=slot; [off,len]
	a.PushUint(32).PushUint(0).Op(evm.KECCAK256)                  // [off,len,dataBase]
	a.PushUint(scratchDst).Op(evm.MSTORE)                         // [off,len]
	a.PushUint(scratchLen).Op(evm.MSTORE)                         // [off]
	a.PushUint(scratchSrc).Op(evm.MSTORE)                         // []
	c.emitLoopMemToStorage()
}

// emitLoadBytesAtMarkerSlot consumes [slot] and leaves [off, len].
func (c *evmCompiler) emitLoadBytesAtMarkerSlot() {
	a := c.asm
	// [slot]
	a.Op(evm.DUP1, evm.SLOAD).PushUint(1).Op(evm.SHR) // [slot, len]
	a.Op(evm.DUP1).PushUint(scratchLen).Op(evm.MSTORE)
	a.Op(evm.DUP1)
	c.emitAlloc()                                      // [slot, len, ptr]
	a.Op(evm.DUP1).PushUint(scratchDst).Op(evm.MSTORE) // dst = ptr
	a.Op(evm.DUP3).PushUint(0).Op(evm.MSTORE).PushUint(32).PushUint(0).Op(evm.KECCAK256)
	a.PushUint(scratchSrc).Op(evm.MSTORE) // src = dataBase slot
	a.Op(evm.SWAP2, evm.POP)              // [ptr, len]
	c.emitLoopStorageToMem()
}

// emitAlloc consumes [len] and leaves [ptr], bumping the free pointer by
// len rounded up to 32.
func (c *evmCompiler) emitAlloc() {
	a := c.asm
	a.PushUint(31).Op(evm.ADD).PushUint(32).Op(evm.SWAP1, evm.DIV).PushUint(32).Op(evm.MUL) // [rounded]
	a.PushUint(0x40).Op(evm.MLOAD)                                                          // [rounded, ptr]
	a.Op(evm.SWAP1)                                                                         // [ptr, rounded]
	a.Op(evm.DUP2, evm.ADD)                                                                 // [ptr, newFree]
	a.PushUint(0x40).Op(evm.MSTORE)
}

// loop emitters: all read src/dst/len from scratch and clobber scratchI.

func (c *evmCompiler) emitLoopHeader() (loop, end string) {
	a := c.asm
	loop, end = c.label("loop"), c.label("endloop")
	a.PushUint(0).PushUint(scratchI).Op(evm.MSTORE)
	a.Label(loop)
	// if i >= len: goto end
	a.PushUint(scratchLen).Op(evm.MLOAD).PushUint(scratchI).Op(evm.MLOAD) // [len, i]
	a.Op(evm.LT, evm.ISZERO)                                              // i < len? LT(a=i,b=len)
	a.PushLabel(end).Op(evm.JUMPI)
	return loop, end
}

func (c *evmCompiler) emitLoopFooter(loop, end string) {
	a := c.asm
	a.PushUint(scratchI).Op(evm.MLOAD).PushUint(32).Op(evm.ADD).PushUint(scratchI).Op(evm.MSTORE)
	a.Jump(loop)
	a.Label(end)
}

// emitLoopMemToMem copies len bytes from mem[src] to mem[dst].
func (c *evmCompiler) emitLoopMemToMem() {
	a := c.asm
	loop, end := c.emitLoopHeader()
	a.PushUint(scratchSrc).Op(evm.MLOAD).PushUint(scratchI).Op(evm.MLOAD).Op(evm.ADD, evm.MLOAD)
	a.PushUint(scratchDst).Op(evm.MLOAD).PushUint(scratchI).Op(evm.MLOAD).Op(evm.ADD, evm.MSTORE)
	c.emitLoopFooter(loop, end)
}

// emitLoopMemToStorage writes mem[src..src+len) to slots dst + i/32.
func (c *evmCompiler) emitLoopMemToStorage() {
	a := c.asm
	loop, end := c.emitLoopHeader()
	a.PushUint(scratchSrc).Op(evm.MLOAD).PushUint(scratchI).Op(evm.MLOAD).Op(evm.ADD, evm.MLOAD) // [value]
	a.PushUint(scratchDst).Op(evm.MLOAD).PushUint(scratchI).Op(evm.MLOAD)
	a.PushUint(32).Op(evm.SWAP1, evm.DIV, evm.ADD) // [value, slot]
	a.Op(evm.SSTORE)
	c.emitLoopFooter(loop, end)
}

// emitLoopStorageToMem reads slots src + i/32 into mem[dst..dst+len).
func (c *evmCompiler) emitLoopStorageToMem() {
	a := c.asm
	loop, end := c.emitLoopHeader()
	a.PushUint(scratchSrc).Op(evm.MLOAD).PushUint(scratchI).Op(evm.MLOAD)
	a.PushUint(32).Op(evm.SWAP1, evm.DIV, evm.ADD, evm.SLOAD) // [value]
	a.PushUint(scratchDst).Op(evm.MLOAD).PushUint(scratchI).Op(evm.MLOAD).Op(evm.ADD, evm.MSTORE)
	c.emitLoopFooter(loop, end)
}

// emitLoopZeroStorage zeroes slots dst + i/32 for i in [0,len).
func (c *evmCompiler) emitLoopZeroStorage() {
	a := c.asm
	loop, end := c.emitLoopHeader()
	a.PushUint(0)
	a.PushUint(scratchDst).Op(evm.MLOAD).PushUint(scratchI).Op(evm.MLOAD)
	a.PushUint(32).Op(evm.SWAP1, evm.DIV, evm.ADD) // [0, slot]
	a.Op(evm.SSTORE)
	c.emitLoopFooter(loop, end)
}

//nolint:gocyclo // expression code generation dispatch.
func (c *evmCompiler) expr(e Expr) {
	a := c.asm
	switch e := e.(type) {
	case *Const:
		switch e.Type {
		case TUInt:
			a.PushUint(e.Uint)
		case TBool:
			if e.Bool {
				a.PushUint(1)
			} else {
				a.PushUint(0)
			}
		case TBytes:
			c.emitConstBytes(e.Bytes)
		default:
			c.fail("unsupported const type %s", e.Type)
		}

	case *Arg:
		if e.Index < 0 || e.Index >= len(c.params) {
			c.fail("arg index %d out of range", e.Index)
			return
		}
		head := uint64(4 + 32*e.Index)
		if c.params[e.Index].Type == TBytes {
			a.PushUint(head).Op(evm.CALLDATALOAD).PushUint(4).Op(evm.ADD) // [tailAbs]
			a.Op(evm.DUP1, evm.CALLDATALOAD)                              // [tailAbs, len]
			a.Op(evm.DUP1)
			c.emitAlloc()              // [tailAbs, len, ptr]
			a.Op(evm.SWAP2)            // [ptr, len, tailAbs]
			a.PushUint(32).Op(evm.ADD) // [ptr, len, src]
			a.Op(evm.DUP2, evm.SWAP1)  // [ptr, len, len, src]
			a.Op(evm.DUP4)             // [ptr, len, len, src, ptr]
			a.Op(evm.CALLDATACOPY)     // [ptr, len]
		} else {
			a.PushUint(head).Op(evm.CALLDATALOAD)
		}

	case *GlobalRef:
		slot := c.globalSlot(e.Name)
		gi, _ := c.p.globalIndex(e.Name)
		if c.p.Globals[gi].Type == TBytes {
			a.PushUint(slot)
			c.emitLoadBytesAtMarkerSlot()
		} else {
			a.PushUint(slot).Op(evm.SLOAD)
		}

	case *MapGet:
		mi, err := c.p.mapIndex(e.Map)
		if err != nil {
			c.fail("%v", err)
			return
		}
		c.expr(e.Key)
		c.emitMapBase(mi)
		if c.p.Maps[mi].Value == TBytes {
			c.emitLoadBytesAtMarkerSlot()
		} else {
			a.Op(evm.SLOAD).PushUint(1).Op(evm.SHR)
		}

	case *MapHas:
		mi, err := c.p.mapIndex(e.Map)
		if err != nil {
			c.fail("%v", err)
			return
		}
		c.expr(e.Key)
		c.emitMapBase(mi)
		a.Op(evm.SLOAD, evm.ISZERO, evm.ISZERO)

	case *Bin:
		c.emitBin(e)

	case *Not:
		c.expr(e.A)
		a.Op(evm.ISZERO)

	case *Balance:
		a.Op(evm.SELFBALANCE)
	case *Caller:
		a.Op(evm.CALLER)
	case *Paid:
		a.Op(evm.CALLVALUE)
	case *Now:
		a.Op(evm.TIMESTAMP)

	case *Digest:
		t := c.typeOf(e.A)
		if parts := fusedParts(e, t); parts != nil {
			// Digest-over-concat fusion: hash the concatenation's operands
			// as one multi-range sha256 descriptor CALL, skipping the
			// concat allocations and word-copy loops entirely.
			// polcrypto.Hash is variadic over concatenation, so the result
			// is bit-identical to hashing the joined buffer.
			for _, part := range parts {
				c.expr(part) // [off_i, len_i] per part
			}
			c.emitPrecompileCall(precompile.IDSha256, len(parts), true) // [ptr, 32]
			return
		}
		c.expr(e.A)
		if t == TBytes {
			a.Op(evm.SWAP1, evm.KECCAK256) // [hash]
		} else {
			a.PushUint(0).Op(evm.MSTORE).PushUint(32).PushUint(0).Op(evm.KECCAK256)
		}
		// Box the hash into fresh memory as a 32-byte value.
		a.PushUint(32)
		c.emitAlloc()    // [hash, ptr]
		a.Op(evm.SWAP1)  // [ptr, hash]
		a.Op(evm.DUP2)   // [ptr, hash, ptr]
		a.Op(evm.MSTORE) // [ptr]
		a.PushUint(32)   // [ptr, 32]

	case *SigVerify:
		c.expr(e.Pub)
		c.expr(e.Msg)
		c.expr(e.Sig) // [offP,lenP, offM,lenM, offS,lenS]
		c.emitPrecompileCall(precompile.IDEd25519Verify, 3, false)

	case *CellContains:
		c.expr(e.Cell)
		c.expr(e.Code) // [offC,lenC, offD,lenD]
		c.emitPrecompileCall(precompile.IDOLCContains, 2, false)

	default:
		c.fail("unknown expression %T", e)
	}
}

// fusedParts returns the flattened ++ operands of a bytes Digest argument
// when they fit one precompile descriptor (both backends hash them in one
// call), or nil: a digest of a non-bytes value or of more operands hashes
// the materialized value instead.
func fusedParts(e *Digest, t Type) []Expr {
	if t != TBytes {
		return nil
	}
	parts := flattenConcat(e.A)
	if len(parts) > maxDescriptorRanges {
		return nil
	}
	return parts
}

// maxDescriptorRanges mirrors the EVM interception's descriptor bound.
const maxDescriptorRanges = 16

// flattenConcat returns the leaves of a ++ tree in evaluation order.
func flattenConcat(e Expr) []Expr {
	if b, ok := e.(*Bin); ok && b.Op == OpConcat {
		return append(flattenConcat(b.A), flattenConcat(b.B)...)
	}
	return []Expr{e}
}

// emitPrecompileCall lowers a CALL to reserved precompile address id over k
// (offset, length) pairs already on the stack (oldest pair first, each with
// length on top). It allocates a 64k-byte descriptor block, stores the
// pairs, issues the CALL with the result written over the descriptor base,
// and jumps to the revert site if the CALL reports failure. Leaves
// [ptr, 32] when bytesResult (a bytes value like every other), else the
// result word itself.
func (c *evmCompiler) emitPrecompileCall(id byte, k int, bytesResult bool) {
	a := c.asm
	a.PushUint(uint64(64 * k))
	c.emitAlloc() // [o1,l1,…,ok,lk, D]
	for j := k - 1; j >= 0; j-- {
		// Stack: […, oj, lj, D] → […, D] with the pair stored at D+64j.
		a.Op(evm.SWAP1)                           // […, oj, D, lj]
		a.Op(evm.DUP2)                            // […, oj, D, lj, D]
		a.PushUint(uint64(64*j + 32)).Op(evm.ADD) // […, oj, D, lj, D+64j+32]
		a.Op(evm.MSTORE)                          // […, oj, D]
		a.Op(evm.SWAP1)                           // […, D, oj]
		a.Op(evm.DUP2)                            // […, D, oj, D]
		a.PushUint(uint64(64 * j)).Op(evm.ADD)    // […, D, oj, D+64j]
		a.Op(evm.MSTORE)                          // […, D]
	}
	a.PushUint(32)                                      // [D, outSize]
	a.Op(evm.DUP2)                                      // [D, 32, outOff=D]
	a.PushUint(uint64(64 * k))                          // [D, 32, D, inSize]
	a.Op(evm.DUP4)                                      // [D, 32, D, 64k, inOff=D]
	a.PushUint(0)                                       // value
	a.PushUint(uint64(id))                              // to: reserved low address
	a.PushUint(0)                                       // gas (the interception charges its own)
	a.Op(evm.CALL)                                      // [D, ok]
	a.Op(evm.ISZERO).PushLabel("revert0").Op(evm.JUMPI) // [D]
	if bytesResult {
		a.PushUint(32) // [ptr, 32]
	} else {
		a.Op(evm.MLOAD) // [word]
	}
}

func (c *evmCompiler) emitConstBytes(b []byte) {
	a := c.asm
	a.PushUint(uint64(len(b)))
	c.emitAlloc() // [ptr]
	for i := 0; i < len(b); i += 32 {
		chunk := make([]byte, 32)
		copy(chunk, b[i:])
		a.PushBytes(chunk)                             // [ptr, chunk]
		a.Op(evm.DUP2).PushUint(uint64(i)).Op(evm.ADD) // [ptr, chunk, off]
		a.Op(evm.MSTORE)
	}
	a.PushUint(uint64(len(b))) // [ptr, len]
}

//nolint:gocyclo // operator dispatch.
func (c *evmCompiler) emitBin(e *Bin) {
	a := c.asm
	ta := c.typeOf(e.A)
	if e.Op == OpConcat {
		c.emitConcat(e)
		return
	}
	if (e.Op == OpEq || e.Op == OpNe) && ta == TBytes {
		c.expr(e.A)
		c.expr(e.B) // [offA,lenA, offB,lenB]
		c.emitPrecompileCall(precompile.IDBytesEqual, 2, false)
		if e.Op == OpNe {
			a.Op(evm.ISZERO)
		}
		return
	}
	// Compile B first, then A, so noncommutative opcodes see A on top
	// (EVM SUB/DIV/LT/GT compute top-op-second).
	c.expr(e.B)
	c.expr(e.A)
	switch e.Op {
	case OpAdd:
		a.Op(evm.ADD)
	case OpSub:
		a.Op(evm.SUB)
	case OpMul:
		a.Op(evm.MUL)
	case OpDiv:
		a.Op(evm.DIV)
	case OpMod:
		a.Op(evm.MOD)
	case OpLt:
		a.Op(evm.LT)
	case OpGt:
		a.Op(evm.GT)
	case OpLe:
		a.Op(evm.GT, evm.ISZERO)
	case OpGe:
		a.Op(evm.LT, evm.ISZERO)
	case OpEq:
		a.Op(evm.EQ)
	case OpNe:
		a.Op(evm.EQ, evm.ISZERO)
	case OpAnd:
		a.Op(evm.AND)
	case OpOr:
		a.Op(evm.OR)
	default:
		c.fail("unsupported operator %s", e.Op)
	}
}

func (c *evmCompiler) emitConcat(e *Bin) {
	a := c.asm
	c.expr(e.A)                       // [offA, lenA]
	c.expr(e.B)                       // [offA, lenA, offB, lenB]
	a.Op(evm.DUP3, evm.DUP2, evm.ADD) // [offA, lenA, offB, lenB, total]
	a.Op(evm.DUP1)
	c.emitAlloc() // [offA, lenA, offB, lenB, total, ptr]
	// Copy A: src=offA dst=ptr len=lenA.
	a.Op(evm.DUP1).PushUint(scratchDst).Op(evm.MSTORE)
	a.Op(evm.DUP5).PushUint(scratchLen).Op(evm.MSTORE)
	a.Op(evm.DUP6).PushUint(scratchSrc).Op(evm.MSTORE)
	c.emitLoopMemToMem()
	// Copy B: src=offB dst=ptr+lenA len=lenB.
	a.Op(evm.DUP1, evm.DUP6, evm.ADD).PushUint(scratchDst).Op(evm.MSTORE)
	a.Op(evm.DUP3).PushUint(scratchLen).Op(evm.MSTORE)
	a.Op(evm.DUP4).PushUint(scratchSrc).Op(evm.MSTORE)
	c.emitLoopMemToMem()
	// Collapse [offA, lenA, offB, lenB, total, ptr] to [ptr, total]:
	// SWAP5 puts ptr at the bottom (dropping offA via POP), SWAP3 lifts
	// total into second position, then drop the rest.
	a.Op(evm.SWAP5, evm.POP) // [ptr, lenA, offB, lenB, total]
	a.Op(evm.SWAP3, evm.POP) // [ptr, total, offB, lenB]
	a.Op(evm.POP, evm.POP)   // [ptr, total]
}
