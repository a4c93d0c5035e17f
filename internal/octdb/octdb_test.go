package octdb

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
)

// saved returns what Save writes for db.
func saved(t *testing.T, db *DB) string {
	t.Helper()
	var sb strings.Builder
	if err := db.Save(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// checkGolden compares what Save writes for db with a committed file.
func checkGolden(t *testing.T, db *DB, file string) {
	t.Helper()
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got := saved(t, db); got != string(want) {
		t.Fatalf("Save differs from %s:\n--- got\n%s--- want\n%s", file, got, want)
	}
}

// TestSaveLoadRoundTrip pins the bytes a viewer loads: one object of each
// kind, a net name with a space and quotes, and a multi-word string
// value, against testdata/store.oct. A replaced property keeps its last
// value only, a port and a net of one name hold separate properties, and
// saving twice writes the same bytes.
func TestSaveLoadRoundTrip(t *testing.T) {
	db := New(netlist.New("d"))
	db.Set(DesignObj, "", "hb.verdict", StringValue("slow"))
	db.Set(NetObj, "weird net \"name\"", "hb.slackPs", IntValue(-123))
	db.Set(InstObj, "g1", "note", IntValue(1))
	db.Set(InstObj, "g1", "note", StringValue("multi word value"))
	db.Set(PortObj, "IN", "k", IntValue(7))
	db.Set(NetObj, "IN", "k", IntValue(8))
	if db.Len() != 5 {
		t.Fatalf("len %d, want 5", db.Len())
	}
	checkGolden(t, db, "testdata/store.oct")
	checkGolden(t, db, "testdata/store.oct")
}

func TestFlagSlowPaths(t *testing.T) {
	lib := celllib.Default()
	d, err := netlist.ParseString(`
design slow
clock phi period 1ns rise 0 fall 400ps
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst f1 DFF_X1 D=IN CK=phi Q=q1
inst g1 INV_X1 A=q1 Y=n1
inst g2 INV_X1 A=n1 Y=n2
inst g3 INV_X1 A=n2 Y=n3
inst g4 INV_X1 A=n3 Y=n4
inst f2 DFF_X1 D=n4 CK=phi Q=q2
inst g5 BUF_X1 A=q2 Y=OUT
end
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Load(lib, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("fixture should be slow at a 1ns period")
	}
	db := New(d)
	FlagSlowPaths(db, a, rep)
	out := saved(t, db)
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^prop design "" "hb.verdict" str "slow"$`),
		regexp.MustCompile(`(?m)^prop net "[^"]+" "hb.slowPath" int 1$`),
		regexp.MustCompile(`(?m)^prop inst "[^"]+" "hb.slowPath" int 1$`),
		regexp.MustCompile(`(?m)^prop design "" "hb.worstPs" int -[0-9]+$`),
	} {
		if !want.MatchString(out) {
			t.Errorf("no line matches %s in\n%s", want, out)
		}
	}
	checkGolden(t, db, "testdata/slow.oct")
}

func TestStringers(t *testing.T) {
	if DesignObj.String() != "design" || NetObj.String() != "net" ||
		InstObj.String() != "inst" || PortObj.String() != "port" {
		t.Fatal("ObjKind strings")
	}
	if !strings.Contains(ObjKind(9).String(), "9") {
		t.Fatal("unknown kind string")
	}
}
