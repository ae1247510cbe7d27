// Package catalog implements the name space of an expiration-time
// database: base relations and materialised views, looked up by the
// engine and the SQL planner.
package catalog

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"expdb/internal/index"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/view"
)

// Sentinel errors for name lookups. Errors returned by the catalog (and
// everything layered on it: engine, SQL) match these via errors.Is.
var (
	// ErrNoSuchTable: the named base relation is not in the catalog.
	ErrNoSuchTable = errors.New("catalog: no such table")
	// ErrNoSuchView: the named view is not in the catalog.
	ErrNoSuchView = errors.New("catalog: no such view")
	// ErrCacheDisabled: the validity-interval result cache is switched
	// off (size 0), so cache-specific operations have nothing to answer
	// from. Declared here with the other name-space sentinels so one
	// import suffices for errors.Is across catalog, engine and SQL.
	ErrCacheDisabled = errors.New("catalog: result cache disabled")
	// ErrNoSuchIndex: the named secondary index is not in the catalog.
	ErrNoSuchIndex = errors.New("catalog: no such index")
)

// IndexDef is the catalog entry for a secondary index: which table and
// columns it covers, its organisation, and the CREATE INDEX statement
// text logged to the WAL (recovery recompiles it like a view definition).
type IndexDef struct {
	Name     string
	Table    string
	Cols     []int    // 0-based positions in the table schema
	ColNames []string // original column spellings, for SHOW INDEXES
	Kind     index.Kind
	Def      string // verbatim CREATE INDEX statement
}

// Catalog maps names to relations and views. It is safe for concurrent
// use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*relation.Relation
	// set is the name-sorted image of tables that TableSet hands out. It
	// is rebuilt, never edited, on CREATE/DROP TABLE, so the clock's
	// heartbeat — which walks it on every Advance — allocates nothing.
	set     []NamedTable
	views   map[string]*view.View
	indexes map[string]*IndexDef
	// byTable holds each table's index definitions sorted by name, the
	// image TableIndexes hands out. A table's slice is rebuilt, never
	// edited, on CREATE/DROP INDEX, so the planner reads it unlocked.
	byTable map[string][]*IndexDef
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*relation.Relation),
		views:   make(map[string]*view.View),
		indexes: make(map[string]*IndexDef),
		byTable: make(map[string][]*IndexDef),
	}
}

// CreateTable registers a new empty relation under name.
func (c *Catalog) CreateTable(name string, schema tuple.Schema) (*relation.Relation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if _, ok := c.views[name]; ok {
		return nil, fmt.Errorf("catalog: %q already names a view", name)
	}
	r := relation.New(schema)
	c.tables[name] = r
	c.rebuildSet()
	return r, nil
}

// rebuildSet recomputes the TableSet image. Caller holds the write lock.
func (c *Catalog) rebuildSet() {
	set := make([]NamedTable, 0, len(c.tables))
	for n, r := range c.tables {
		set = append(set, NamedTable{Name: n, Rel: r})
	}
	sort.Slice(set, func(i, j int) bool { return set[i].Name < set[j].Name })
	c.set = set
}

// DropTable removes the named relation, along with the registry entries
// of any indexes defined on it (the attached index structures die with
// the relation).
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	delete(c.tables, name)
	c.rebuildSet()
	for _, def := range c.byTable[name] {
		delete(c.indexes, def.Name)
	}
	delete(c.byTable, name)
	return nil
}

// AddIndex registers a secondary-index definition. The attached index
// structure lives on the relation; the catalog holds the name space and
// the definition the planner and SHOW INDEXES consult.
func (c *Catalog) AddIndex(def *IndexDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[def.Name]; ok {
		return fmt.Errorf("catalog: index %q already exists", def.Name)
	}
	if _, ok := c.tables[def.Table]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, def.Table)
	}
	c.indexes[def.Name] = def
	defs := append(slices.Clone(c.byTable[def.Table]), def)
	slices.SortFunc(defs, func(a, b *IndexDef) int { return strings.Compare(a.Name, b.Name) })
	c.byTable[def.Table] = defs
	return nil
}

// DropIndex removes the named index definition, returning it so the
// engine can detach the structure from its relation.
func (c *Catalog) DropIndex(name string) (*IndexDef, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	def, ok := c.indexes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchIndex, name)
	}
	delete(c.indexes, name)
	c.byTable[def.Table] = slices.DeleteFunc(slices.Clone(c.byTable[def.Table]), func(d *IndexDef) bool { return d == def })
	return def, nil
}

// Index returns the named index definition.
func (c *Catalog) Index(name string) (*IndexDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	def, ok := c.indexes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchIndex, name)
	}
	return def, nil
}

// Indexes returns every index definition, sorted by name.
func (c *Catalog) Indexes() []*IndexDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*IndexDef, 0, len(c.indexes))
	for _, def := range c.indexes {
		out = append(out, def)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TableIndexes returns the definitions of the indexes on one table,
// sorted by name — the planner's access-path candidates. The slice is
// shared and immutable: callers must not modify it.
func (c *Catalog) TableIndexes(table string) []*IndexDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byTable[table]
}

// Table returns the named relation.
func (c *Catalog) Table(name string) (*relation.Relation, error) {
	c.mu.RLock()
	r, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return r, nil
}

// Resolve looks name up as a table and as a view in one lookup, for a
// FROM source, which may be either: one of the two is non-nil, or the
// error matches both ErrNoSuchTable and ErrNoSuchView.
func (c *Catalog) Resolve(name string) (*relation.Relation, *view.View, error) {
	c.mu.RLock()
	r, v := c.tables[name], c.views[name]
	c.mu.RUnlock()
	if r == nil && v == nil {
		return nil, nil, errors.Join(fmt.Errorf("%w: %q", ErrNoSuchTable, name), fmt.Errorf("%w: %q", ErrNoSuchView, name))
	}
	return r, v, nil
}

// Tables returns the table names in sorted order.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TableSet returns a name-sorted snapshot of the registered relations.
// Callers iterate the snapshot without holding the catalog lock, so
// sweeps can lock tables one at a time. The slice is shared and
// immutable: callers must not modify it.
func (c *Catalog) TableSet() []NamedTable {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.set
}

// NamedTable pairs a relation with its catalog name.
type NamedTable struct {
	Name string
	Rel  *relation.Relation
}

// RegisterView stores a view under its name.
func (c *Catalog) RegisterView(v *view.View) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.views[v.Name()]; ok {
		return fmt.Errorf("catalog: view %q already exists", v.Name())
	}
	if _, ok := c.tables[v.Name()]; ok {
		return fmt.Errorf("catalog: %q already names a table", v.Name())
	}
	c.views[v.Name()] = v
	return nil
}

// DropView removes the named view.
func (c *Catalog) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.views[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchView, name)
	}
	delete(c.views, name)
	return nil
}

// View returns the named view.
func (c *Catalog) View(name string) (*view.View, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchView, name)
	}
	return v, nil
}

// Views returns the view names in sorted order.
func (c *Catalog) Views() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.views))
	for n := range c.views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
