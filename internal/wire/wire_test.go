package wire

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/engine"
	"expdb/internal/relation"
	"expdb/internal/sql"
	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// figure1Engine loads the paper's Figure 1 database.
func figure1Engine(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.New()
	sess := sql.NewSession(eng, nil)
	script := `
		CREATE TABLE pol (uid INT, deg INT);
		CREATE TABLE el  (uid INT, deg INT);
		INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
		INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
		INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
		INSERT INTO el VALUES (1, 75) EXPIRES AT 5;
		INSERT INTO el VALUES (2, 85) EXPIRES AT 3;
		INSERT INTO el VALUES (4, 90) EXPIRES AT 2;
	`
	if _, err := sess.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return eng
}

// newTestServer wraps a Figure 1 engine in an (unstarted) server.
func newTestServer(t *testing.T, opts ...ServerOption) (*engine.Engine, *Server) {
	t.Helper()
	eng := figure1Engine(t)
	return eng, NewServer(eng, nil, opts...)
}

// startServerAddr serves the Figure 1 database on a specific address
// (retrying briefly, for restart tests that must rebind a just-freed
// port).
func startServerAddr(t *testing.T, addr string, opts ...ServerOption) (*engine.Engine, *Server, string) {
	t.Helper()
	eng, srv := newTestServer(t, opts...)
	var bound string
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		bound, err = srv.Listen(addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return eng, srv, bound
}

// startServer loads the Figure 1 database and serves it on a loopback
// port.
func startServer(t *testing.T) (*engine.Engine, *Server, string) {
	t.Helper()
	return startServerAddr(t, "127.0.0.1:0")
}

func TestMaterializeAndLocalReads(t *testing.T) {
	eng, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Materialize("SELECT pol.uid, pol.deg FROM pol JOIN el ON pol.uid = el.uid", false); err != nil {
		t.Fatal(err)
	}
	if c.Texp() != xtime.Infinity {
		t.Fatalf("texp = %v, want ∞ (monotonic query)", c.Texp())
	}
	// The remote copy tracks server-side expiration with zero traffic.
	for tau := xtime.Time(0); tau <= 20; tau++ {
		if err := eng.Advance(tau); err != nil {
			t.Fatal(err)
		}
		rel, err := c.Read(tau)
		if err != nil {
			t.Fatal(err)
		}
		want := 2
		if tau >= 3 {
			want = 1
		}
		if tau >= 5 {
			want = 0
		}
		if got := rel.CountAt(tau); got != want {
			t.Fatalf("at %v: %d rows, want %d", tau, got, want)
		}
	}
	if c.Rematerializations != 0 {
		t.Fatalf("monotonic view re-fetched %d times", c.Rematerializations)
	}
	if s := c.Stats(); s.MessagesSent != 1 {
		t.Fatalf("traffic: %s (want a single materialise message)", s)
	}
}

func TestRemoteDiffRecomputeOnInvalid(t *testing.T) {
	eng, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Materialize("SELECT uid FROM pol EXCEPT SELECT uid FROM el", false); err != nil {
		t.Fatal(err)
	}
	if c.Texp() != 3 {
		t.Fatalf("texp = %v, want 3", c.Texp())
	}
	for tau := xtime.Time(0); tau <= 16; tau++ {
		if err := eng.Advance(tau); err != nil {
			t.Fatal(err)
		}
		rel, err := c.Read(tau)
		if err != nil {
			t.Fatal(err)
		}
		// Compare with a direct evaluation on the server engine.
		sess := sql.NewSession(eng, nil)
		expr, err := sess.PlanQuery("SELECT uid FROM pol EXCEPT SELECT uid FROM el")
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := algebra.EvalStream(expr, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !fresh.SameTuplesAt(rel, tau) {
			t.Fatalf("remote copy diverges at %v:\nremote:\n%s\nserver:\n%s",
				tau, rel.Render(tau), fresh.Render(tau))
		}
	}
	if c.Rematerializations == 0 {
		t.Fatal("difference view without patches must re-fetch at least once")
	}
}

func TestRemoteDiffWithPatchesNeverRefetches(t *testing.T) {
	eng, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Materialize("SELECT uid FROM pol EXCEPT SELECT uid FROM el", true); err != nil {
		t.Fatal(err)
	}
	if c.Texp() != xtime.Infinity {
		t.Fatalf("texp with patches = %v, want ∞ (Theorem 3)", c.Texp())
	}
	for tau := xtime.Time(0); tau <= 20; tau++ {
		if err := eng.Advance(tau); err != nil {
			t.Fatal(err)
		}
		rel, err := c.Read(tau)
		if err != nil {
			t.Fatal(err)
		}
		for _, uid := range expectedDiff(tau) {
			if !rel.Contains(tuple.Ints(uid), tau) {
				t.Fatalf("at %v: uid %d missing:\n%s", tau, uid, rel.Render(tau))
			}
		}
	}
	if c.Rematerializations != 0 {
		t.Fatalf("patched client re-fetched %d times", c.Rematerializations)
	}
	if c.PatchesApplied != 2 {
		t.Fatalf("patches applied = %d, want 2", c.PatchesApplied)
	}
	if s := c.Stats(); s.MessagesSent != 1 {
		t.Fatalf("traffic: %s", s)
	}
}

// TestRemoteReadOfAViewStopsAtItsNextBirth: a read of a view that keeps its
// future is stamped until the next pending birth, and a remote copy of it
// inherits that through Response.Texp: it re-fetches there and shows what the
// view then shows. Stamped with the view's texp(e) = ∞, as it used to be, the
// copy never asked again and never showed ⟨2⟩.
func TestRemoteReadOfAViewStopsAtItsNextBirth(t *testing.T) {
	eng, _, addr := startServer(t)
	if _, err := sql.NewSession(eng, nil).Exec("CREATE VIEW vp WITH (patching) AS SELECT uid FROM pol EXCEPT SELECT uid FROM el"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Materialize("SELECT * FROM vp", false); err != nil {
		t.Fatal(err)
	}
	if c.Texp() != 3 {
		t.Fatalf("a copy of vp made at 0 is valid until %v, want 3: ⟨2⟩ is born then", c.Texp())
	}
	for tau := xtime.Time(0); tau <= 16; tau++ {
		if err := eng.Advance(tau); err != nil {
			t.Fatal(err)
		}
		rel, err := c.Read(tau)
		if err != nil {
			t.Fatal(err)
		}
		want := expectedDiff(tau)
		if rel.CountAt(tau) != len(want) {
			t.Fatalf("at %v: %d rows, want uids %v:\n%s", tau, rel.CountAt(tau), want, rel.Render(tau))
		}
		for _, uid := range want {
			if !rel.Contains(tuple.Ints(uid), tau) {
				t.Fatalf("at %v: uid %d missing:\n%s", tau, uid, rel.Render(tau))
			}
		}
	}
	if c.Rematerializations != 2 { // at 3 and at 5, the view's two births
		t.Fatalf("the copy re-fetched %d times, want 2", c.Rematerializations)
	}
}

// The client's local reads hand out snapshots of one local copy, so the
// reads between two patches share one sort: each must still come back in
// tuple order, in a slice of the caller's own, and a handle read before a
// patch keeps the pre-patch answer.
func TestLocalReadsKeepTupleOrderAcrossPatches(t *testing.T) {
	eng, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Materialize("SELECT uid FROM pol EXCEPT SELECT uid FROM el", true); err != nil {
		t.Fatal(err)
	}
	uids := func(rows []relation.Row) []int64 {
		out := make([]int64, len(rows))
		for i, row := range rows {
			out[i] = row.Tuple[0].AsInt()
		}
		return out
	}
	var held *relation.Relation // read at tick 4, between the two patches
	for tau := xtime.Time(0); tau <= 16; tau++ {
		if err := eng.Advance(tau); err != nil {
			t.Fatal(err)
		}
		want := expectedDiff(tau)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for read := 0; read < 3; read++ {
			rel, err := c.Read(tau)
			if err != nil {
				t.Fatal(err)
			}
			rows := rel.RowsSorted(tau)
			if got := uids(rows); !slices.Equal(got, want) {
				t.Fatalf("tick %v read %d: uids %v, want %v", tau, read, got, want)
			}
			slices.Reverse(rows) // a caller re-ordering its own slice
			if tau == 4 {
				held = rel
			}
		}
		if held != nil {
			if got := uids(held.RowsSorted(4)); !slices.Equal(got, []int64{2, 3}) {
				t.Fatalf("tick %v: the handle read at tick 4 now answers %v", tau, got)
			}
		}
	}
	if c.Rematerializations != 0 || c.PatchesApplied != 2 {
		t.Fatalf("%d re-fetches and %d patches, want 0 and 2", c.Rematerializations, c.PatchesApplied)
	}
}

// expectedDiff returns the UIDs of π1(Pol) − π1(El) at tau per Figure 3.
func expectedDiff(tau xtime.Time) []int64 {
	var uids []int64
	if tau < 10 {
		uids = append(uids, 3)
	}
	if tau >= 3 && tau < 15 {
		uids = append(uids, 2)
	}
	if tau >= 5 && tau < 10 {
		uids = append(uids, 1)
	}
	return uids
}

func TestServerTime(t *testing.T) {
	eng, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := eng.Advance(7); err != nil {
		t.Fatal(err)
	}
	now, err := c.ServerTime()
	if err != nil {
		t.Fatal(err)
	}
	if now != 7 {
		t.Fatalf("server time = %v, want 7", now)
	}
}

func TestServerErrorPropagates(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Materialize("SELECT nope FROM nada", false)
	if err == nil || !strings.Contains(err.Error(), "server:") {
		t.Fatalf("err = %v, want server error", err)
	}
	// The connection survives an error response.
	if err := c.Materialize("SELECT * FROM pol", false); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}

// TestFailedMaterializeKeepsTheCopysQuery: a fetch that fails leaves the
// client with the copy it had and the query that copy answers, so a local
// read never returns one query's rows as the answer to another, and the
// copy's re-fetch asks for its own query again.
func TestFailedMaterializeKeepsTheCopysQuery(t *testing.T) {
	eng, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const q1 = "SELECT uid FROM pol EXCEPT SELECT uid FROM el" // valid until 3
	if err := c.Materialize(q1, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Materialize("SELECT uid FROM no_such_table", true); err == nil {
		t.Fatal("a query over a missing table materialised")
	}
	if c.query != q1 || c.wantPatches {
		t.Fatalf("after the failed fetch the client holds %q (patches %v), its copy answers %q", c.query, c.wantPatches, q1)
	}
	if err := eng.Advance(3); err != nil {
		t.Fatal(err)
	}
	rel, err := c.Read(3)
	if err != nil {
		t.Fatalf("re-fetch of the copy's own query: %v", err)
	}
	if got := rel.CountAt(3); got != len(expectedDiff(3)) || c.Rematerializations != 1 {
		t.Fatalf("at 3: %d rows after %d re-fetches, want %d after 1", got, c.Rematerializations, len(expectedDiff(3)))
	}
}

func TestMultipleClients(t *testing.T) {
	eng, srv, addr := startServer(t)
	const n = 4
	clients := make([]*Client, n)
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Materialize("SELECT * FROM pol", false); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	if err := eng.Advance(12); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		rel, err := c.Read(12)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if rel.CountAt(12) != 1 {
			t.Fatalf("client %d: rows = %d, want 1", i, rel.CountAt(12))
		}
	}
	if srv.Stats().MessagesReceived < n {
		t.Fatalf("server stats: %s", srv.Stats())
	}
}

func TestPatchBudgetOverWire(t *testing.T) {
	eng, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two critical tuples exist; a budget of 1 ships only the first, so
	// the copy invalidates at the second event (texp_S(⟨1⟩) = 5).
	if err := c.MaterializeBudget("SELECT uid FROM pol EXCEPT SELECT uid FROM el", true, 1); err != nil {
		t.Fatal(err)
	}
	if c.Texp() != 5 {
		t.Fatalf("texp = %v, want 5 (first unshipped critical event)", c.Texp())
	}
	for tau := xtime.Time(0); tau <= 16; tau++ {
		if err := eng.Advance(tau); err != nil {
			t.Fatal(err)
		}
		rel, err := c.Read(tau)
		if err != nil {
			t.Fatal(err)
		}
		for _, uid := range expectedDiff(tau) {
			if !rel.Contains(tuple.Ints(uid), tau) {
				t.Fatalf("at %v: uid %d missing:\n%s", tau, uid, rel.Render(tau))
			}
		}
	}
	if c.Rematerializations == 0 {
		t.Fatal("exhausted wire budget must re-fetch")
	}
}

// TestTraceIDOverWire: the client's trace ID survives the round trip —
// the server tags its materialisation event with it and echoes it in the
// Response, so a fetch is correlatable across both event logs.
func TestTraceIDOverWire(t *testing.T) {
	eng, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Materialize("SELECT uid FROM pol", false); err != nil {
		t.Fatal(err)
	}
	tid := c.LastTraceID()
	if tid == 0 {
		t.Fatal("client recorded no trace ID for the materialisation")
	}
	var found bool
	for _, ev := range eng.Events().Snapshot(0) {
		if ev.Kind == trace.EvWireMaterialize && ev.Trace == tid {
			found = true
			if ev.Name != "SELECT uid FROM pol" {
				t.Errorf("materialise event query = %q", ev.Name)
			}
			if ev.Count != 3 {
				t.Errorf("materialise event rows = %d, want 3", ev.Count)
			}
		}
	}
	if !found {
		t.Fatalf("server event log has no wire-materialize event under trace %s:\n%v",
			tid, eng.Events().Snapshot(0))
	}

	// A second materialisation gets a fresh ID.
	if err := c.Materialize("SELECT uid FROM el", false); err != nil {
		t.Fatal(err)
	}
	if c.LastTraceID() == tid {
		t.Fatal("trace ID reused across materialisations")
	}
}

// TestServerMintsTraceID: a zero TraceID in the request (an old client)
// still yields a non-zero correlation key in the response and events.
func TestServerMintsTraceID(t *testing.T) {
	eng, srv, _ := startServer(t)
	_ = srv
	resp := srvRespond(t, eng, &Request{Kind: MsgMaterialize, Query: "SELECT uid FROM pol"})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if resp.TraceID == 0 {
		t.Fatal("server did not mint a trace ID for an untraced request")
	}
}

// rowsOf counts the rows a response carries.
func rowsOf(resp *Response) int {
	if resp.rel == nil {
		return 0
	}
	return resp.rel.CountAt(resp.Now)
}

// srvRespond drives Server.respond directly (no socket) for protocol
// edge cases.
func srvRespond(t *testing.T, eng *engine.Engine, req *Request) *Response {
	t.Helper()
	s := NewServer(eng, nil)
	return s.respond(sql.NewSession(eng, nil), req)
}

// TestNonASCIIDigitQuery: a query holding a non-ASCII decimal digit (which
// once kept the lexer from returning) gets an error reply, and the server
// keeps serving the connection.
func TestNonASCIIDigitQuery(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Materialize("SELECT * FROM pol WHERE uid = ٣", false)
	if err == nil || !strings.Contains(err.Error(), "unexpected character '٣'") {
		t.Fatalf("err = %v, want the lexer's unexpected character", err)
	}
	if err := c.Materialize("SELECT uid FROM pol WHERE uid = 3", false); err != nil {
		t.Fatalf("the next request: %v", err)
	}
}
