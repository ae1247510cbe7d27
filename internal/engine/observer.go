package engine

import (
	"expdb/internal/trace"
	"expdb/internal/xtime"
)

// ViewObserverFunc is notified when a registered view's materialisation
// becomes invalid at tick at — the §3.3 "queries and observers" hook: an
// observer may refresh the view, push an invalidation message to remote
// copies, or simply record that answers are now stale.
type ViewObserverFunc func(name string, at xtime.Time)

// viewWatch tracks one observed view.
type viewWatch struct {
	name    string
	fn      ViewObserverFunc
	refresh bool
	// notified remembers that the current materialisation's invalidation
	// has been reported, so an observer fires once per invalidation, not
	// once per tick.
	notified bool
}

// OnViewInvalid registers fn to fire when the named view's
// materialisation invalidates as the clock advances. With autoRefresh the
// engine re-materialises the view immediately after notifying, so
// subsequent reads are served from a fresh materialisation ("one option
// is to recompute the expression once it becomes invalid", §3.1).
func (e *Engine) OnViewInvalid(name string, fn ViewObserverFunc, autoRefresh bool) error {
	if _, err := e.cat.View(name); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.watches = append(e.watches, &viewWatch{name: name, fn: fn, refresh: autoRefresh})
	return nil
}

// checkWatches runs from the Advance/Sweep pipeline (advMu held, engine
// lock not held) and returns the notifications to dispatch after all
// locks are released. Each view is checked under its own lock plus read
// locks on its base relations; the notified flag is only touched here, so
// advMu alone serialises it.
func (e *Engine) checkWatches(now xtime.Time, tid trace.ID) []firedWatch {
	e.mu.RLock()
	watches := append([]*viewWatch(nil), e.watches...)
	e.mu.RUnlock()
	var due []firedWatch
	for _, w := range watches {
		v, err := e.cat.View(w.name)
		if err != nil {
			continue // view dropped
		}
		v.Lock()
		rlockRels(v.Bases())
		switch {
		case !v.NeedsRecomputation(now):
			w.notified = false
		case w.notified:
			// Already reported this invalidation.
		default:
			w.notified = true
			// The triggering texp is the materialisation's texp(e) before
			// any refresh replaces it.
			e.events.Emit(trace.Event{
				Trace: tid, Kind: trace.EvViewInvalid, Name: w.name,
				Tick: now, Texp: v.Texp(),
			})
			due = append(due, firedWatch{watch: w, at: now})
			if w.refresh && e.rematerialize(v, now, tid) == nil {
				w.notified = false
			}
		}
		runlockRels(v.Bases())
		v.Unlock()
	}
	return due
}

// firedWatch is one pending observer notification.
type firedWatch struct {
	watch *viewWatch
	at    xtime.Time
}
