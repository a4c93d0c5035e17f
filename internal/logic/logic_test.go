package logic

import (
	"strings"
	"testing"
	"testing/quick"

	"hummingbird/internal/celllib"
)

// mustParse wraps Parse for static, known-valid test fixtures.
func mustParse(function string) *Expr {
	e, err := Parse(function)
	if err != nil {
		panic(err)
	}
	return e
}

func env(pairs ...interface{}) map[string]Value {
	m := map[string]Value{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(Value)
	}
	return m
}

func TestPrimitives(t *testing.T) {
	if Not(Zero) != One || Not(One) != Zero || Not(X) != X {
		t.Fatal("Not")
	}
	if And(Zero, X) != Zero || And(X, One) != X || And(One, One) != One {
		t.Fatal("And")
	}
	if Or(One, X) != One || Or(X, Zero) != X || Or(Zero, Zero) != Zero {
		t.Fatal("Or")
	}
	if Xor(One, Zero) != One || Xor(One, One) != Zero || Xor(X, One) != X {
		t.Fatal("Xor")
	}
	if Mux(One, Zero, One) != Zero || Mux(Zero, Zero, One) != One {
		t.Fatal("Mux select")
	}
	if Mux(X, One, One) != One || Mux(X, One, Zero) != X {
		t.Fatal("Mux X-select")
	}
	if Zero.String() != "0" || One.String() != "1" || X.String() != "X" {
		t.Fatal("strings")
	}
	if FromBool(true) != One || FromBool(false) != Zero {
		t.Fatal("FromBool")
	}
}

func TestParseEval(t *testing.T) {
	cases := []struct {
		fn   string
		env  map[string]Value
		want Value
	}{
		{"Y=!A", env("A", One), Zero},
		{"Y=A&B", env("A", One, "B", One), One},
		{"Y=!(A&B)", env("A", One, "B", Zero), One},
		{"Y=A|B", env("A", Zero, "B", Zero), Zero},
		{"Y=A^B", env("A", One, "B", Zero), One},
		{"Y=!(A^B)", env("A", One, "B", One), One},
		{"Y=!((A&B)|C)", env("A", One, "B", One, "C", Zero), Zero},
		{"Y=!((A|B)&C)", env("A", Zero, "B", Zero, "C", One), One},
		{"Y=S?B:A", env("S", One, "A", Zero, "B", One), One},
		{"Y=S?B:A", env("S", Zero, "A", Zero, "B", One), Zero},
		{"Y=A&1", env("A", One), One},
		{"Y=A|0", env("A", Zero), Zero},
		// Precedence: & binds tighter than ^ binds tighter than |.
		{"Y=A|B&C", env("A", Zero, "B", One, "C", Zero), Zero},
		{"Y=A^B&C", env("A", One, "B", One, "C", Zero), One},
		// Unbound identifiers read X.
		{"Y=A&B", env("A", One), X},
		{"Y=A&B", env("A", Zero), Zero},
	}
	for _, c := range cases {
		e, err := Parse(c.fn)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.fn, err)
			continue
		}
		if got := e.Eval(c.env); got != c.want {
			t.Errorf("%q %v = %v, want %v", c.fn, c.env, got, c.want)
		}
	}
}

func TestParseOutAndInputs(t *testing.T) {
	e := mustParse("Y=!((A&B)|C)")
	if e.Out != "Y" {
		t.Fatalf("Out = %q", e.Out)
	}
	ins := e.Inputs()
	if len(ins) != 3 || ins[0] != "A" || ins[1] != "B" || ins[2] != "C" {
		t.Fatalf("Inputs = %v", ins)
	}
	// Duplicates deduplicate.
	e2 := mustParse("Q=D&D")
	if len(e2.Inputs()) != 1 || e2.Inputs()[0] != "D" {
		t.Fatalf("Inputs = %v", e2.Inputs())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "A", "=A", "Y=", "Y=(A", "Y=A)", "Y=A&&B", "Y=A?B", "Y=A?B:",
		"Y=@", "Y=A B",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestDefaultLibraryFunctionsParse: every combinational cell of the default
// library carries a parsable function whose inputs match its data pins —
// the contract the simulator relies on.
func TestDefaultLibraryFunctionsParse(t *testing.T) {
	lib := celllib.Default()
	for _, name := range lib.Names() {
		c := lib.Cell(name)
		if c.IsSync() {
			continue
		}
		e, err := Parse(c.Function)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if e.Out != c.Outputs()[0] {
			t.Errorf("%s: function output %q != pin %q", name, e.Out, c.Outputs()[0])
		}
		pins := map[string]bool{}
		for _, p := range c.Pins {
			if p.Dir == celllib.In {
				pins[p.Name] = true
			}
		}
		for _, in := range e.Inputs() {
			if !pins[in] {
				t.Errorf("%s: function references unknown pin %q", name, in)
			}
		}
	}
}

// Property: X-monotonicity — refining an X input to 0 or 1 never flips a
// determined output, only (possibly) determines an X one.
func TestXMonotonicity(t *testing.T) {
	exprs := []*Expr{
		mustParse("Y=!(A&B)"), mustParse("Y=A^B"), mustParse("Y=!((A|B)&C)"),
		mustParse("Y=S?B:A"), mustParse("Y=!((A&B)|C)"),
	}
	vals := []Value{X, Zero, One}
	check := func(sel uint8, a, b, c, s uint8, refineIdx uint8, refineTo bool) bool {
		e := exprs[int(sel)%len(exprs)]
		envBase := map[string]Value{
			"A": vals[a%3], "B": vals[b%3], "C": vals[c%3], "S": vals[s%3],
		}
		before := e.Eval(envBase)
		// Refine one X input.
		names := []string{"A", "B", "C", "S"}
		name := names[int(refineIdx)%4]
		if envBase[name] != X {
			return true
		}
		envBase[name] = FromBool(refineTo)
		after := e.Eval(envBase)
		if before == X {
			return true // anything goes
		}
		return after == before
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWhitespaceTolerated(t *testing.T) {
	e, err := Parse("Y = ! ( A & B )")
	if err != nil {
		t.Fatal(err)
	}
	if e.Eval(env("A", One, "B", One)) != Zero {
		t.Fatal("eval")
	}
	if !strings.Contains(strings.Join(e.Inputs(), ","), "A") {
		t.Fatal("inputs")
	}
}
