package expdb_test

import (
	"strings"
	"testing"

	"expdb"
	"expdb/algebra"
)

// openFigure1 loads the paper's example database through the public API.
func openFigure1(t testing.TB) *expdb.DB {
	t.Helper()
	db := expdb.Open()
	_, err := db.ExecScript(`
		CREATE TABLE pol (uid INT, deg INT);
		CREATE TABLE el  (uid INT, deg INT);
		INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
		INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
		INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
		INSERT INTO el VALUES (1, 75) EXPIRES AT 5;
		INSERT INTO el VALUES (2, 85) EXPIRES AT 3;
		INSERT INTO el VALUES (4, 90) EXPIRES AT 2;
	`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicSQLRoundTrip(t *testing.T) {
	db := openFigure1(t)
	res := db.MustExec("SELECT uid FROM pol WHERE deg = 25")
	if res.Rel.CountAt(db.Now()) != 2 {
		t.Fatalf("rows = %d, want 2", res.Rel.CountAt(db.Now()))
	}
	if err := db.Advance(10); err != nil {
		t.Fatal(err)
	}
	res = db.MustExec("SELECT * FROM pol")
	if res.Rel.CountAt(10) != 1 {
		t.Fatalf("rows at 10 = %d, want 1", res.Rel.CountAt(10))
	}
}

func TestPublicProgrammaticAPI(t *testing.T) {
	db := expdb.Open()
	if err := db.Engine().CreateTable("s", expdb.Schema{Cols: []expdb.Column{
		{Name: "id", Kind: expdb.Int(0).Kind()},
	}}); err != nil {
		t.Fatal(err)
	}
	fired := 0
	if err := db.OnExpire("s", func(table string, row expdb.Row, at expdb.Time) {
		fired++
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertTTL("s", expdb.Ints(1), 5); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("s", expdb.Ints(2), expdb.Infinity); err != nil {
		t.Fatal(err)
	}
	if err := db.Advance(20); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("triggers = %d, want 1", fired)
	}
}

func TestPublicAlgebraAndViews(t *testing.T) {
	db := openFigure1(t)
	polB, err := db.Engine().Base("pol")
	if err != nil {
		t.Fatal(err)
	}
	elB, err := db.Engine().Base("el")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := algebra.NewProject([]int{0}, polB)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := algebra.NewProject([]int{0}, elB)
	if err != nil {
		t.Fatal(err)
	}
	d, err := algebra.NewDiff(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Monotonic() {
		t.Fatal("difference must be non-monotonic")
	}
	v, err := db.CreateView("onlypol", d, expdb.WithPatching())
	if err != nil {
		t.Fatal(err)
	}
	if v.Texp() != expdb.Infinity {
		t.Fatalf("patched texp = %v", v.Texp())
	}
	if err := db.Advance(6); err != nil {
		t.Fatal(err)
	}
	rel, info, err := db.ReadView("onlypol")
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != expdb.SourceMaterialised || info.At != 6 {
		t.Fatalf("read info = %+v", info)
	}
	for _, uid := range []int64{1, 2, 3} {
		if !rel.Contains(expdb.Ints(uid), 6) {
			t.Fatalf("uid %d missing", uid)
		}
	}
	if rows := rel.RowsSorted(info.At); len(rows) != 3 {
		t.Fatalf("visible rows = %d, want 3", len(rows))
	}
}

func TestPublicNotify(t *testing.T) {
	var out strings.Builder
	db := expdb.OpenWithNotify(&out)
	db.MustExec("CREATE TABLE s (id INT)")
	db.MustExec("CREATE TRIGGER bye ON s ON EXPIRE DO NOTIFY 'gone'")
	db.MustExec("INSERT INTO s VALUES (7) EXPIRES AT 2")
	db.MustExec("ADVANCE TO 3")
	if !strings.Contains(out.String(), "bye") {
		t.Fatalf("notify output = %q", out.String())
	}
}

func TestPublicPlan(t *testing.T) {
	db := openFigure1(t)
	e, err := db.Plan("SELECT uid FROM pol EXCEPT SELECT uid FROM el")
	if err != nil {
		t.Fatal(err)
	}
	texp, err := algebra.ExprTexp(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if texp != 3 {
		t.Fatalf("texp = %v, want 3", texp)
	}
	rewritten := algebra.PushDownSelections(e)
	if rewritten.String() == "" {
		t.Fatal("empty plan string")
	}
}
