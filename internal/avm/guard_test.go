package avm_test

import (
	"os"
	"slices"
	"strings"
	"testing"

	"agnopol/contracts"
	"agnopol/internal/avm"
	"agnopol/internal/lang"
)

// TestParseAcceptsWhatTheCompilerEmits: the forms avm.Parse accepts are
// exactly the forms the TEAL backend emits for the shipped contracts and
// for testdata/every-kind.pol, a program with every statement, expression
// and operator kind of the language. An op the compiler stops emitting
// fails here until the AVM deletes it; an op it starts emitting fails
// here until the AVM accepts it.
func TestParseAcceptsWhatTheCompilerEmits(t *testing.T) {
	everyKind, err := os.ReadFile("testdata/every-kind.pol")
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	for _, src := range []string{
		contracts.PoLReport, contracts.PoLReportV2, contracts.PoLVerify,
		contracts.AreaCheckin, string(everyKind),
	} {
		p, err := lang.ParseSource(src)
		if err == nil {
			err = lang.Check(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		teal, _, err := lang.CompileTEAL(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range forms(teal) {
			emitted[form] = true
		}
	}
	accepted := avm.AcceptedForms()
	for _, form := range accepted {
		if !emitted[form] {
			t.Errorf("Parse accepts %q, which the compiler never emits", form)
		}
		delete(emitted, form)
	}
	for form := range emitted {
		t.Errorf("the compiler emits %q, which Parse does not accept", form)
	}
	if t.Failed() {
		slices.Sort(accepted)
		t.Logf("accepted: %q", accepted)
	}
}

// forms returns the form of each instruction of a TEAL source: its
// mnemonic, with the field of txn, global and itxn_field.
func forms(teal string) []string {
	var out []string
	for _, line := range strings.Split(teal, "\n") {
		toks := strings.Fields(line)
		if len(toks) == 0 || strings.HasPrefix(toks[0], "//") ||
			(len(toks) == 1 && strings.HasSuffix(toks[0], ":")) {
			continue
		}
		switch form := toks[0]; form {
		case "txn", "global", "itxn_field":
			out = append(out, form+" "+toks[1])
		default:
			out = append(out, form)
		}
	}
	return out
}
