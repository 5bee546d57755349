package lang

// Expr is a typed expression node. Expressions are pure: all effects live in
// statements, which keeps the verifier's path analysis simple.
type Expr interface {
	exprNode()
}

// Const is a literal.
type Const struct {
	Type  Type
	Uint  uint64
	Bytes []byte
	Bool  bool
}

// Arg references the i-th parameter of the enclosing API or constructor.
type Arg struct {
	Index int
}

// GlobalRef reads a global state variable.
type GlobalRef struct {
	Name string
}

// MapGet reads Map[key]; reading an absent key is a runtime failure, so
// bodies guard it with MapHas (the verifier checks this).
type MapGet struct {
	Map string
	Key Expr
}

// MapHas tests key presence.
type MapHas struct {
	Map string
	Key Expr
}

// BinOp is a binary operator.
type BinOp int

// Binary operators. Concat applies to TBytes; the comparisons yield TBool.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLt
	OpGt
	OpLe
	OpGe
	OpEq
	OpNe
	OpAnd
	OpOr
	OpConcat
)

func (op BinOp) String() string {
	return [...]string{"+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "&&", "||", "++"}[op]
}

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	A, B Expr
}

// Not negates a TBool.
type Not struct {
	A Expr
}

// Balance reads the contract's native-token balance (Reach's balance()).
type Balance struct{}

// Caller is the address invoking the current API (Reach's `this`).
type Caller struct{}

// Paid is the native-token amount attached to the current call.
type Paid struct{}

// Now is the consensus timestamp (seconds).
type Now struct{}

// Digest hashes the argument (Reach's digest). Result is TBytes.
type Digest struct {
	A Expr
}

// SigVerify checks an ed25519 signature (sigok(pub, msg, sig)). All three
// operands are TBytes; the result is TBool. It lowers to the VM
// signature precompiles: signature math does not belong in a contract loop.
type SigVerify struct {
	Pub, Msg, Sig Expr
}

// CellContains tests open-location-code containment
// (contains(cell, code)): whether code lies in the area cell, with the
// cell stored as a stripped even-length OLC prefix so containment is a raw
// byte-prefix check. Both operands are TBytes; the result is TBool.
type CellContains struct {
	Cell, Code Expr
}

func (*Const) exprNode()        {}
func (*Arg) exprNode()          {}
func (*GlobalRef) exprNode()    {}
func (*MapGet) exprNode()       {}
func (*MapHas) exprNode()       {}
func (*Bin) exprNode()          {}
func (*Not) exprNode()          {}
func (*Balance) exprNode()      {}
func (*Caller) exprNode()       {}
func (*Paid) exprNode()         {}
func (*Now) exprNode()          {}
func (*Digest) exprNode()       {}
func (*SigVerify) exprNode()    {}
func (*CellContains) exprNode() {}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
}

// Assume rejects the call when cond is false, attributing the failure to the
// caller's inputs (Reach's assume: checked when participants may be
// dishonest).
type Assume struct {
	Cond Expr
	Msg  string
}

// Require rejects the call when cond is false and is additionally a theorem
// the static verifier must discharge for honest participants (Reach's
// require).
type Require struct {
	Cond Expr
	Msg  string
}

// SetGlobal assigns a global.
type SetGlobal struct {
	Name  string
	Value Expr
}

// MapSet writes Map[key] = value.
type MapSet struct {
	Map   string
	Key   Expr
	Value Expr
}

// MapDel deletes Map[key].
type MapDel struct {
	Map string
	Key Expr
}

// Transfer moves amount of the contract's balance to an address (Reach's
// transfer(amount).to(addr)).
type Transfer struct {
	Amount Expr
	To     Expr
}

// If branches.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// Emit publishes an event with a payload (surfaces as an EVM log / AVM log).
type Emit struct {
	Event string
	Value Expr
}

// Return ends the API with a result value. Every API path must end in a
// Return; the type checker enforces it.
type Return struct {
	Value Expr
}

func (*Assume) stmtNode()    {}
func (*Require) stmtNode()   {}
func (*SetGlobal) stmtNode() {}
func (*MapSet) stmtNode()    {}
func (*MapDel) stmtNode()    {}
func (*Transfer) stmtNode()  {}
func (*If) stmtNode()        {}
func (*Emit) stmtNode()      {}
func (*Return) stmtNode()    {}
