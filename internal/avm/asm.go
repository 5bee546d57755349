package avm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Instr is one decoded TEAL instruction. Parse decodes every immediate and
// resolves every label once, so the interpreter reads operands and never
// parses text.
type Instr struct {
	// Op is the mnemonic as written, for error messages and the opcode
	// profile.
	Op string
	// Line is the 1-based source line, for error messages.
	Line int
	// Cost is the instruction's budget cost, sha256_parts' per-part charge
	// included.
	Cost uint64

	code opcode
	// arg is the decoded numeric immediate: an int constant, an
	// ApplicationArgs index, a sha256_parts count or a branch target's
	// instruction index.
	arg uint64
	// data is the decoded byte-string immediate. Its capacity equals its
	// length, so a value pushed from it never shares an append.
	data []byte
}

// Program is a parsed TEAL program ready for execution.
type Program struct {
	Source string
	Instrs []Instr
}

// opcode is what the interpreter dispatches on. A field-taking mnemonic
// (txn, global, itxn_field) decodes to one opcode per field. The zero
// opcode is an instruction Parse did not decode.
type opcode uint8

const (
	opInt opcode = iota + 1
	opBytes
	opTxnSender
	opTxnApplicationID
	opTxnaArg
	opGtxnAmount
	opGlobalLatestTimestamp
	opGlobalCurrentApplicationAddress
	opGlobalMinBalance
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opLt
	opGt
	opLe
	opGe
	opAnd
	opOr
	opEq
	opNe
	opNot
	opItob
	opBtoi
	opConcat
	opSha256
	opSha256Parts
	opEd25519Verify
	opOLCContains
	opPop
	opSwap
	opB
	opBnz
	opBz
	opAssert
	opErr
	opReturn
	opLog
	opAppGlobalGet
	opAppGlobalGetEx
	opAppGlobalPut
	opAppGlobalDel
	opBalance
	opItxnBegin
	opItxnReceiver
	opItxnAmount
	opItxnTypeEnum
	opItxnSubmit
)

// immediate is the shape of an instruction's operands.
type immediate uint8

const (
	immNone   immediate = iota
	immUint             // a decimal uint64
	immBytes            // a quoted string or a bare word
	immField            // a field name, looked up in fields
	immArg              // ApplicationArgs i
	immAmount           // 0 Amount
	immParts            // a part count from 1 to 16
	immLabel            // a label
)

// ops maps each mnemonic to its opcode and the immediates it takes. It holds
// exactly what the TEAL backend (lang.CompileTEAL) emits; the avm_test
// guard keeps the two equal.
var ops = map[string]struct {
	code opcode
	imm  immediate
}{
	"int": {opInt, immUint}, "byte": {opBytes, immBytes},
	"txn": {imm: immField}, "global": {imm: immField}, "itxn_field": {imm: immField},
	"txna": {opTxnaArg, immArg}, "gtxn": {opGtxnAmount, immAmount},
	"+": {opAdd, immNone}, "-": {opSub, immNone}, "*": {opMul, immNone},
	"/": {opDiv, immNone}, "%": {opMod, immNone},
	"<": {opLt, immNone}, ">": {opGt, immNone}, "<=": {opLe, immNone}, ">=": {opGe, immNone},
	"&&": {opAnd, immNone}, "||": {opOr, immNone},
	"==": {opEq, immNone}, "!=": {opNe, immNone}, "!": {opNot, immNone},
	"itob": {opItob, immNone}, "btoi": {opBtoi, immNone}, "concat": {opConcat, immNone},
	"sha256": {opSha256, immNone}, "sha256_parts": {opSha256Parts, immParts},
	"ed25519verify": {opEd25519Verify, immNone}, "olc_contains": {opOLCContains, immNone},
	"pop": {opPop, immNone}, "swap": {opSwap, immNone},
	"b": {opB, immLabel}, "bnz": {opBnz, immLabel}, "bz": {opBz, immLabel},
	"assert": {opAssert, immNone}, "err": {opErr, immNone},
	"return": {opReturn, immNone}, "log": {opLog, immNone},
	"app_global_get": {opAppGlobalGet, immNone}, "app_global_get_ex": {opAppGlobalGetEx, immNone},
	"app_global_put": {opAppGlobalPut, immNone}, "app_global_del": {opAppGlobalDel, immNone},
	"balance": {opBalance, immNone}, "itxn_begin": {opItxnBegin, immNone},
	"itxn_submit": {opItxnSubmit, immNone},
}

// fields gives the opcode of each field of a field-taking mnemonic.
var fields = map[string]map[string]opcode{
	"txn": {"Sender": opTxnSender, "ApplicationID": opTxnApplicationID},
	"global": {
		"LatestTimestamp": opGlobalLatestTimestamp, "MinBalance": opGlobalMinBalance,
		"CurrentApplicationAddress": opGlobalCurrentApplicationAddress,
	},
	"itxn_field": {"Receiver": opItxnReceiver, "Amount": opItxnAmount, "TypeEnum": opItxnTypeEnum},
}

// Parse assembles the TEAL subset the contract language compiles to.
// Grammar: one instruction per line; `//` comments (outside string
// literals); `name:` defines a label; string immediates use Go-style double
// quotes. Every instruction is checked: an unknown opcode or field, a
// missing, extra or malformed immediate and an undefined label are
// ErrBadProgram errors naming the line.
func Parse(src string) (*Program, error) {
	p := &Program{Source: src}
	labels := make(map[string]int)
	var args [][]string
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
			label := strings.TrimSuffix(line, ":")
			if _, dup := labels[label]; dup {
				return nil, fmt.Errorf("%w: line %d: duplicate label %q", ErrBadProgram, lineNo+1, label)
			}
			labels[label] = len(p.Instrs)
			continue
		}
		toks, err := tokenize(line)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadProgram, lineNo+1, err)
		}
		p.Instrs = append(p.Instrs, Instr{Op: toks[0], Line: lineNo + 1})
		args = append(args, toks[1:])
	}
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		if err := ins.decode(args[i], labels); err != nil {
			return nil, fmt.Errorf("%w: line %d (%s): %v", ErrBadProgram, ins.Line, ins.Op, err)
		}
	}
	return p, nil
}

// decode sets ins's opcode, cost and immediates from its operand tokens.
func (ins *Instr) decode(args []string, labels map[string]int) error {
	spec, ok := ops[ins.Op]
	if !ok {
		return errors.New("unknown opcode")
	}
	want := 1
	switch spec.imm {
	case immNone:
		want = 0
	case immArg, immAmount:
		want = 2
	}
	if len(args) != want {
		return fmt.Errorf("takes %d immediates, has %d", want, len(args))
	}
	ins.code, ins.Cost = spec.code, max(opCost[ins.Op], 1)
	var err error
	switch spec.imm {
	case immUint:
		ins.arg, err = argUint(args[0])
	case immBytes:
		s := argString(args[0])
		ins.data = []byte(s)[:len(s):len(s)]
	case immField:
		if ins.code, ok = fields[ins.Op][args[0]]; !ok {
			return fmt.Errorf("unknown field %q", args[0])
		}
	case immArg:
		if args[0] != "ApplicationArgs" {
			return fmt.Errorf("unknown field %q", args[0])
		}
		ins.arg, err = argUint(args[1])
	case immAmount:
		// Group index 0 is by convention the payment transaction the
		// connector groups in front of a paying API call.
		if argString(args[0]) != "0" || args[1] != "Amount" {
			return fmt.Errorf("only gtxn 0 Amount is supported, have %q %q", args[0], args[1])
		}
	case immParts:
		if ins.arg, err = argUint(args[0]); err == nil && (ins.arg < 1 || ins.arg > 16) {
			return fmt.Errorf("part count %d outside 1–16", ins.arg)
		}
		// One unit per hashed part, as the EVM precompile charges per
		// referenced range.
		ins.Cost += ins.arg
	case immLabel:
		target, ok := labels[args[0]]
		if !ok {
			return fmt.Errorf("undefined label %q", args[0])
		}
		ins.arg = uint64(target)
	}
	return err
}

// stripComment cuts a `//` comment off a line; a `//` inside a
// double-quoted string is part of the string.
func stripComment(line string) string {
	quoted := false
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case quoted && c == '\\':
			i++ // the escaped byte cannot end the string
		case c == '"':
			quoted = !quoted
		case !quoted && strings.HasPrefix(line[i:], "//"):
			return line[:i]
		}
	}
	return line
}

// tokenize splits an instruction line, keeping double-quoted strings (with
// escapes) as single tokens.
func tokenize(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated string")
			}
			tok, err := strconv.Unquote(line[i : j+1])
			if err != nil {
				return nil, fmt.Errorf("bad string literal: %w", err)
			}
			out = append(out, "\x00"+tok) // NUL prefix marks "already unquoted string"
			i = j + 1
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		out = append(out, line[i:j])
		i = j
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty instruction")
	}
	return out, nil
}

// argString decodes a token that may be a quoted string (NUL-prefixed by the
// tokenizer) or a bare word.
func argString(tok string) string {
	if strings.HasPrefix(tok, "\x00") {
		return tok[1:]
	}
	return tok
}

// argUint parses a numeric immediate.
func argUint(tok string) (uint64, error) {
	return strconv.ParseUint(argString(tok), 10, 64)
}
