package agnopol

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents whose backticked names must exist.
var namedDocs = []string{"DESIGN.md", "README.md", "docs/LANGUAGE.md"}

// TestDocsNameOnlyWhatExists: every backticked `path/file.go` in the docs
// exists, every `pkg.Exported` or `pkg.Exported.Member` naming an internal
// package resolves to a declaration (test files included; a trailing `*`
// matches any name it prefixes), and every bare exported identifier
// appears in the repository's Go code. A rename or a deletion that leaves
// a document naming what is gone fails here.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	ix := indexCode(t)
	for _, doc := range namedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range ix.stale(string(text)) {
			t.Errorf("%s names `%s`, which does not exist", doc, name)
		}
	}
}

// TestDocNameGuardCatchesStaleNames: each kind of name the guard checks
// fails when it names nothing, and passes in the forms the docs use.
func TestDocNameGuardCatchesStaleNames(t *testing.T) {
	ix := indexCode(t)
	for _, name := range []string{
		"internal/chain/blocks.go", "chain/blocks_test.go",
		"chain.PruneBlocks", "chain.Currency", "internal/chain.Currency",
		"chain.Receipts.PruneBlocks", "eth.Chain.blocks", "(*chain.Receipts).PruneBlocks",
		"core.Nope*", "chain.PruneBlocks(r, blocks, hashes)", "*chain.Currency",
		"PruneBlocks", "PruneBlocks()", "Receipts.PruneBlocks",
	} {
		if got := ix.stale("a `" + name + "` b"); len(got) != 1 {
			t.Errorf("`%s`: the guard reports %q, want it stale", name, got)
		}
	}
	for _, name := range []string{
		"internal/chain/receipts.go", "chain/receipts_test.go",
		"chain.Receipts", "chain.Receipts.Begin", "(*chain.Receipts).Begin", "chain.Pool[T]",
		"eth.Chain.SetShards", "core.Compile*", "evm.*", "chain.TestReceiptsSameHashTwice",
		"Begin", "Receipts.Begin", "Digest()", "big.Gone", "sim.user", "go test ./...",
	} {
		if got := ix.stale("a `" + name + "` b"); len(got) != 0 {
			t.Errorf("`%s`: the guard reports %q, want it resolved", name, got)
		}
	}
	// A fenced block is an example, not a name.
	if got := ix.stale("```go\nchain.PruneBlocks(r, b, f)\n```\n"); len(got) != 0 {
		t.Errorf("the guard reads a fenced block: %q", got)
	}
}

// codeIndex is what the repository's Go code declares and mentions.
type codeIndex struct {
	words map[string]bool           // identifiers, and words in string literals
	pkgs  map[string]*declaredNames // internal packages by name
}

// declaredNames is one package's declarations: its package-level names, the
// names of its methods, and per type its methods, fields and embedded types.
type declaredNames struct {
	top      map[string]bool
	methods  map[string]bool
	members  map[string]map[string]bool
	embedded map[string][][2]string // type → (package, type) it embeds
}

var wordRE = regexp.MustCompile(`[A-Za-z_]\w*`)

// guardFile is this file: the stale names its tests plant are no evidence
// that a name exists.
const guardFile = "docnames_test.go"

func indexCode(t *testing.T) *codeIndex {
	t.Helper()
	ix := &codeIndex{words: map[string]bool{}, pkgs: map[string]*declaredNames{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || path == guardFile {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT || tok == token.STRING {
				for _, w := range wordRE.FindAllString(lit, -1) {
					ix.words[w] = true
				}
			}
		}
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ix.declare(filepath.Base(dir), f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// declare records a file's declarations under its package name.
func (ix *codeIndex) declare(pkg string, f *ast.File) {
	p := ix.pkgs[pkg]
	if p == nil {
		p = &declaredNames{top: map[string]bool{}, methods: map[string]bool{}, members: map[string]map[string]bool{}, embedded: map[string][][2]string{}}
		ix.pkgs[pkg] = p
	}
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.top[d.Name.Name] = true
				continue
			}
			p.methods[d.Name.Name] = true
			if typ := baseType(pkg, d.Recv.List[0].Type); typ[1] != "" {
				member(typ[1], d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						p.top[n.Name] = true
					}
				case *ast.TypeSpec:
					name := spec.Name.Name
					p.top[name] = true
					var fields []*ast.Field
					switch typ := spec.Type.(type) {
					case *ast.StructType:
						fields = typ.Fields.List
					case *ast.InterfaceType:
						fields = typ.Methods.List
					}
					for _, fld := range fields {
						for _, n := range fld.Names {
							member(name, n.Name)
						}
						if len(fld.Names) == 0 {
							if e := baseType(pkg, fld.Type); e[1] != "" {
								member(name, e[1])
								p.embedded[name] = append(p.embedded[name], e)
							}
						}
					}
				}
			}
		}
	}
}

// baseType names the type an expression denotes, past pointers and type
// arguments: (package, type), or an empty type for anything else.
func baseType(pkg string, e ast.Expr) [2]string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return baseType(pkg, e.X)
	case *ast.IndexExpr:
		return baseType(pkg, e.X)
	case *ast.IndexListExpr:
		return baseType(pkg, e.X)
	case *ast.Ident:
		return [2]string{pkg, e.Name}
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return [2]string{x.Name, e.Sel.Name}
		}
	}
	return [2]string{}
}

// hasMember reports whether a type declares name or promotes it from a type
// it embeds.
func (ix *codeIndex) hasMember(pkg, typ, name string, depth int) bool {
	p := ix.pkgs[pkg]
	if p == nil || depth > 8 {
		return false
	}
	if p.members[typ][name] {
		return true
	}
	for _, e := range p.embedded[typ] {
		if ix.hasMember(e[0], e[1], name, depth+1) {
			return true
		}
	}
	return false
}

var (
	fenceRE     = regexp.MustCompile("(?ms)^```.*?^```")
	spanRE      = regexp.MustCompile("`([^`\n]+)`")
	recvRE      = regexp.MustCompile(`\(\*([\w.]+)\)`)             // (*T).M → T.M
	typeArgsRE  = regexp.MustCompile(`\[[^\]]*\]`)                 // Pool[T] → Pool
	callRE      = regexp.MustCompile(`^([\w./*]+)\([\w\s,.*]*\)$`) // F(a, b...) → F
	goFileRE    = regexp.MustCompile(`^[\w.-]+(/[\w.-]+)+\.go$`)
	qualifiedRE = regexp.MustCompile(`^(?:internal/)?([a-z][a-z0-9]*)\.([A-Z]\w*\*?|\*)(?:\.(\w+))?$`)
	bareRE      = regexp.MustCompile(`^[A-Z]\w*(\.[A-Z]\w*)*$`) // T, or T.M with M exported
)

// stale returns the backticked names in a document that resolve to
// nothing, in the order they appear.
func (ix *codeIndex) stale(doc string) []string {
	var out []string
	for _, m := range spanRE.FindAllStringSubmatch(fenceRE.ReplaceAllString(doc, ""), -1) {
		if !ix.resolves(m[1]) {
			out = append(out, m[1])
		}
	}
	return out
}

func (ix *codeIndex) resolves(span string) bool {
	if goFileRE.MatchString(span) {
		for _, path := range []string{span, "internal/" + span} {
			if _, err := os.Stat(path); err == nil {
				return true
			}
		}
		return false
	}
	name := typeArgsRE.ReplaceAllString(recvRE.ReplaceAllString(span, "$1"), "")
	if m := callRE.FindStringSubmatch(name); m != nil {
		name = m[1]
	}
	name = strings.TrimPrefix(name, "*")
	if m := qualifiedRE.FindStringSubmatch(name); m != nil {
		p := ix.pkgs[m[1]]
		if p == nil {
			return true // not an internal package: the standard library, or not Go
		}
		if prefix, ok := strings.CutSuffix(m[2], "*"); ok {
			for n := range p.top {
				if strings.HasPrefix(n, prefix) {
					return true
				}
			}
			return false
		}
		if m[3] != "" {
			return ix.hasMember(m[1], m[2], m[3], 0)
		}
		return p.top[m[2]] || p.methods[m[2]] // `eth.Step` is Chain's
	}
	if bareRE.MatchString(name) {
		for _, w := range strings.Split(name, ".") {
			if !ix.words[w] {
				return false
			}
		}
	}
	return true
}
