package lang

import "fmt"

// GlobalDef declares a global state variable.
type GlobalDef struct {
	Name string
	Type Type
}

// MapDef declares a Map. Following the thesis contract (and the Algorand
// limitation it records in §2.4), map keys are TUInt — the prover's DID
// compressed to a UInt — and values are TBytes.
type MapDef struct {
	Name  string
	Key   Type
	Value Type
}

// Param is a named, typed parameter of an API or the constructor.
type Param struct {
	Name string
	Type Type
}

// API is a function the frontend can call asynchronously (the mechanism a
// Reach ParallelReduce exposes to attachers and verifiers).
type API struct {
	Name    string
	Params  []Param
	Returns Type
	// Pay, when non-nil, is the amount of native currency the caller must
	// attach (Reach's payExpression). APIs with nil Pay must receive zero.
	Pay Expr
	// Body is the consensus code; it must end in Return on every path.
	Body []Stmt
}

// View is a read-only accessor evaluated without a transaction (and hence
// without fees, §4.1.2).
type View struct {
	Name string
	Expr Expr
	Type Type
}

// Constructor is the deployment step: the Creator participant publishes its
// interact values and initializes state.
type Constructor struct {
	Params []Param
	Body   []Stmt
}

// Program is a complete contract in the agnostic language.
type Program struct {
	Name    string
	Globals []GlobalDef
	Maps    []MapDef
	Ctor    Constructor
	APIs    []*API
	Views   []View
}

// NewProgram starts an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name}
}

// DeclareGlobal adds a global and returns a reference expression for it.
func (p *Program) DeclareGlobal(name string, t Type) *GlobalRef {
	p.Globals = append(p.Globals, GlobalDef{Name: name, Type: t})
	return &GlobalRef{Name: name}
}

// DeclareMap adds a map.
func (p *Program) DeclareMap(name string, key, value Type) MapDef {
	d := MapDef{Name: name, Key: key, Value: value}
	p.Maps = append(p.Maps, d)
	return d
}

// SetConstructor installs the deployment step.
func (p *Program) SetConstructor(params []Param, body ...Stmt) {
	p.Ctor = Constructor{Params: params, Body: body}
}

// AddAPI registers an API.
func (p *Program) AddAPI(a *API) *API {
	p.APIs = append(p.APIs, a)
	return a
}

// AddView registers a view.
func (p *Program) AddView(name string, t Type, e Expr) {
	p.Views = append(p.Views, View{Name: name, Expr: e, Type: t})
}

// FindAPI returns the named API or nil.
func (p *Program) FindAPI(name string) *API {
	for _, a := range p.APIs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// FindView returns the named view.
func (p *Program) FindView(name string) (View, bool) {
	for _, v := range p.Views {
		if v.Name == name {
			return v, true
		}
	}
	return View{}, false
}

func (p *Program) globalIndex(name string) (int, error) {
	for i, g := range p.Globals {
		if g.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("lang: undefined global %q", name)
}

func (p *Program) mapIndex(name string) (int, error) {
	for i, m := range p.Maps {
		if m.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("lang: undefined map %q", name)
}

// Expression shorthands used by programs built in Go source.

// U is a TUInt literal.
func U(v uint64) *Const { return &Const{Type: TUInt, Uint: v} }

// Bs is a TBytes literal from a string.
func Bs(s string) *Const { return &Const{Type: TBytes, Bytes: []byte(s)} }

// True and False are TBool literals.
var (
	True  = &Const{Type: TBool, Bool: true}
	False = &Const{Type: TBool, Bool: false}
)

// A references API/constructor argument i.
func A(i int) *Arg { return &Arg{Index: i} }

// G references a global.
func G(name string) *GlobalRef { return &GlobalRef{Name: name} }

// Add, Sub, Mul, Div, Mod build arithmetic nodes.
func Add(a, b Expr) *Bin { return &Bin{Op: OpAdd, A: a, B: b} }
func Sub(a, b Expr) *Bin { return &Bin{Op: OpSub, A: a, B: b} }
func Mul(a, b Expr) *Bin { return &Bin{Op: OpMul, A: a, B: b} }
func Div(a, b Expr) *Bin { return &Bin{Op: OpDiv, A: a, B: b} }
func Mod(a, b Expr) *Bin { return &Bin{Op: OpMod, A: a, B: b} }

// Lt, Gt, Le, Ge, Eq, Ne build comparisons.
func Lt(a, b Expr) *Bin { return &Bin{Op: OpLt, A: a, B: b} }
func Gt(a, b Expr) *Bin { return &Bin{Op: OpGt, A: a, B: b} }
func Le(a, b Expr) *Bin { return &Bin{Op: OpLe, A: a, B: b} }
func Ge(a, b Expr) *Bin { return &Bin{Op: OpGe, A: a, B: b} }
func Eq(a, b Expr) *Bin { return &Bin{Op: OpEq, A: a, B: b} }
func Ne(a, b Expr) *Bin { return &Bin{Op: OpNe, A: a, B: b} }

// And and Or build boolean connectives.
func And(a, b Expr) *Bin { return &Bin{Op: OpAnd, A: a, B: b} }
func Or(a, b Expr) *Bin  { return &Bin{Op: OpOr, A: a, B: b} }

// Concat joins byte strings.
func Concat(a, b Expr) *Bin { return &Bin{Op: OpConcat, A: a, B: b} }
