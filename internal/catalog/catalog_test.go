package catalog

import (
	"fmt"
	"sync"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/tuple"
	"expdb/internal/view"
)

func TestCreateLookupDrop(t *testing.T) {
	c := New()
	r, err := c.CreateTable("pol", tuple.IntCols("uid", "deg"))
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("nil relation")
	}
	got, err := c.Table("pol")
	if err != nil || got != r {
		t.Fatalf("Table = %v, %v", got, err)
	}
	if _, err := c.CreateTable("pol", tuple.IntCols("x")); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := c.DropTable("pol"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("pol"); err == nil {
		t.Error("dropped table still resolvable")
	}
	if err := c.DropTable("pol"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestViewRegistry(t *testing.T) {
	c := New()
	rel, err := c.CreateTable("t", tuple.IntCols("x"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := view.New("v", algebra.NewBase("t", rel))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterView(v); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterView(v); err == nil {
		t.Error("duplicate view accepted")
	}
	got, err := c.View("v")
	if err != nil || got != v {
		t.Fatalf("View = %v, %v", got, err)
	}
	// A view may not shadow a table and vice versa.
	shadow, err := view.New("t", algebra.NewBase("t", rel))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterView(shadow); err == nil {
		t.Error("view shadowing a table accepted")
	}
	if _, err := c.CreateTable("v", tuple.IntCols("x")); err == nil {
		t.Error("table shadowing a view accepted")
	}
	if err := c.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropView("v"); err == nil {
		t.Error("double view drop accepted")
	}
}

func TestListingsSorted(t *testing.T) {
	c := New()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.CreateTable(name, tuple.IntCols("x")); err != nil {
			t.Fatal(err)
		}
	}
	names := c.Tables()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("Tables() = %v", names)
	}
}

// TestTableIndexes: a table's index definitions come sorted by name and
// leave with DROP INDEX and DROP TABLE; a slice handed out earlier never
// changes under later DDL.
func TestTableIndexes(t *testing.T) {
	c := New()
	for _, name := range []string{"a", "b"} {
		if _, err := c.CreateTable(name, tuple.IntCols("x")); err != nil {
			t.Fatal(err)
		}
	}
	names := func(defs []*IndexDef) string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		return fmt.Sprint(out)
	}
	for _, def := range []*IndexDef{{Name: "z", Table: "a"}, {Name: "b1", Table: "b"}, {Name: "m", Table: "a"}, {Name: "c", Table: "a"}} {
		if err := c.AddIndex(def); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddIndex(&IndexDef{Name: "m", Table: "b"}); err == nil {
		t.Fatal("a duplicate index name accepted")
	}
	held := c.TableIndexes("a")
	if got := names(held); got != "[c m z]" {
		t.Fatalf("TableIndexes(a) = %s", got)
	}
	if _, err := c.DropIndex("m"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&IndexDef{Name: "d", Table: "a"}); err != nil {
		t.Fatal(err)
	}
	if got := names(c.TableIndexes("a")); got != "[c d z]" {
		t.Fatalf("after DROP m and ADD d: TableIndexes(a) = %s", got)
	}
	if got := names(held); got != "[c m z]" {
		t.Fatalf("a slice handed out changed under DDL: %s", got)
	}
	if err := c.DropTable("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Index("c"); err == nil || len(c.TableIndexes("a")) != 0 {
		t.Fatal("DROP TABLE left its indexes")
	}
	if got := names(c.TableIndexes("b")); got != "[b1]" {
		t.Fatalf("TableIndexes(b) = %s", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", i)
			if _, err := c.CreateTable(name, tuple.IntCols("x")); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 100; j++ {
				if _, err := c.Table(name); err != nil {
					t.Error(err)
					return
				}
				c.Tables()
			}
		}(i)
	}
	wg.Wait()
	if len(c.Tables()) != 16 {
		t.Fatalf("tables = %d", len(c.Tables()))
	}
}
