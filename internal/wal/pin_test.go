package wal

import (
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// pinnedValues holds every value kind and the edges of its encoding: NaN,
// −0, the INT extremes, an empty string and one whose length needs a
// two-byte uvarint.
var pinnedValues = tuple.Tuple{
	value.Null, value.Int(math.MinInt64), value.Int(math.MaxInt64), value.Int(-1),
	value.Float(math.NaN()), value.Float(math.Copysign(0, -1)), value.Float(2.5),
	value.String_(""), value.String_(strings.Repeat("x", 130)), value.Bool(true), value.Bool(false),
}

// pinnedLog is one record of every log kind and of every snapshot kind.
func pinnedLog() []Record {
	schema := tuple.Schema{Cols: []tuple.Column{
		{Name: "id", Kind: value.KindInt}, {Name: "f", Kind: value.KindFloat},
		{Name: "s", Kind: value.KindString}, {Name: "b", Kind: value.KindBool}, {Name: "n", Kind: value.KindNull},
	}}
	return []Record{
		{Kind: KindCreateTable, Name: "t", Schema: schema},
		{Kind: KindInsert, Name: "t", Tuple: pinnedValues, Texp: xtime.Infinity},
		{Kind: KindDelete, Name: "t", Key: pinnedValues.Key()},
		{Kind: KindAdvance, Texp: 7},
		{Kind: KindDropTable, Name: "t"},
		{Kind: KindCreateView, Name: "v", Def: "CREATE VIEW v AS SELECT * FROM t"},
		{Kind: KindDropView, Name: "v"},
		{Kind: KindSweep, Texp: 300},
		{Kind: KindCreateIndex, Name: "i", Def: "CREATE INDEX i ON t (id)"},
		{Kind: KindDropIndex, Name: "i"},
		{Kind: KindSnapHeader, Texp: 9, Aux: 8},
		{Kind: KindSnapTable, Name: "t", Schema: schema},
		{Kind: KindSnapRow, Tuple: pinnedValues, Texp: 1 << 40},
		{Kind: KindSnapView, Name: "v", Def: "CREATE VIEW v AS SELECT id FROM t"},
		{Kind: KindSnapIndex, Name: "i", Def: "CREATE INDEX i ON t (s)"},
		{Kind: KindSnapFooter, Count: 300},
	}
}

const pinnedLogHex = `0000001425b2e5530401740502696401016602017303016204016e00000000ceb80573cf0101740b00018000000000000000017fffffffffffffff01ffffffffffffffff027ff8000000000001028000000000000000024004000000000000030003820178787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878040104007fffffffffffffff000000cc6c93d5f0020174c7016e66c3e0000000000000697fffffffffffffff66bff0000000000000667ff80000000000016600000000000000006640040000000000007300000000730000008278787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878620162000000000941e0bdc803000000000000000700000003b7f99f9d05017400000024dcf6716706017620435245415445205649455720762041532053454c454354202a2046524f4d2074000000035a732adf070176000000097612eb1408000000000000012c0000001cfd7b5b110901691843524541544520494e4445582069204f4e2074202869642900000003dfa3b4790a0169000000114534fd2e20000000000000000900000000000000080000001414c465472101740502696401016602017303016204016e00000000ccb8492d8a220b00018000000000000000017fffffffffffffff01ffffffffffffffff027ff800000000000102800000000000000002400400000000000003000382017878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787804010400000001000000000000000025ce7160d223017621435245415445205649455720762041532053454c4543542069642046524f4d20740000001b52b73c4f2501691743524541544520494e4445582069204f4e207420287329000000032cb9a5e724ac02`

const pinnedSnapshotHex = `000000114534fd2e20000000000000000900000000000000080000000a1d572321210174020161010162010000001c8795b3a3220201000000000000000101fffffffffffffffe000000000000000a000000265ae89375220400018000000000000000017fffffffffffffff01ffffffffffffffff7fffffffffffffff000000241cd2e12723017620435245415445205649455720762041532053454c45435420612046524f4d20740000001b2a434c9c2501691743524541544520494e4445582069204f4e20742028612900000002c05b07d62405`

// TestRecordBytesPinned: the bytes of every record kind and of a snapshot
// file are fixed. A log or snapshot written by one build must be read by
// the next, so a change to the encoding of a record or a value fails here.
func TestRecordBytesPinned(t *testing.T) {
	var buf []byte
	for _, rec := range pinnedLog() {
		buf = appendRecord(buf, &rec)
	}
	if got := hex.EncodeToString(buf); got != pinnedLogHex {
		t.Errorf("log bytes changed:\n got %s\nwant %s", got, pinnedLogHex)
	}

	path := filepath.Join(t.TempDir(), "snap")
	snap := &Snapshot{
		Clock: 9, LastSweep: 8,
		Tables: []SnapshotTable{{Name: "t", Schema: tuple.IntCols("a", "b"), Rows: []SnapshotRow{
			{Tuple: tuple.Ints(1, -2), Texp: 10}, {Tuple: pinnedValues[:4], Texp: xtime.Infinity},
		}}},
		Views:   []SnapshotView{{Name: "v", Def: "CREATE VIEW v AS SELECT a FROM t"}},
		Indexes: []SnapshotIndex{{Name: "i", Def: "CREATE INDEX i ON t (a)"}},
	}
	if err := WriteSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(file); got != pinnedSnapshotHex {
		t.Errorf("snapshot bytes changed:\n got %s\nwant %s", got, pinnedSnapshotHex)
	}
}
