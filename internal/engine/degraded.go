package engine

import (
	"errors"
	"math/rand"
	"syscall"
	"time"

	"expdb/internal/trace"
	"expdb/internal/vfs"
	"expdb/internal/wal"
)

// Degraded mode: what a disk failure means for an expiration-time
// database.
//
// The paper's premise — every tuple carries a durable texp, and the
// whole expiry schedule is a cache re-derivable from stored texp values
// — gives this engine a degradation story ordinary databases don't
// have. When the WAL's disk fails, the in-memory state remains provably
// valid: reads, view serving, the result cache and Advance/expiry keep
// working (answers stay correct within their validity windows), only
// writes must stop, because acknowledging them would promise a
// durability the disk cannot deliver. So instead of the log's
// sticky-poison-and-die, the engine transitions to read-only degraded
// mode: mutations return ErrReadOnly, the clock keeps moving, and a
// background goroutine retries recovery with capped jittered backoff.
//
// Recovery is re-open + checkpoint, not replay: the engine still holds
// the authoritative state in memory, so it opens a fresh log generation,
// captures the full in-memory state as a snapshot at that generation,
// and only once that snapshot is durable discards the poisoned log and
// the old generations. A crash at any point before the snapshot is
// durable recovers exactly the old durable prefix; after it, exactly
// the degraded-mode state. Nothing in between can be observed.
//
// ENOSPC gets one extra step first, the paper's way: expired tuples are
// reclaimable space. A forced sweep physically removes every dead tuple,
// the compacting checkpoint then contains only live rows, and the
// RemoveBelow after it frees every old generation — often enough to
// recover without ever entering degraded mode.

// ErrReadOnly is returned by every mutation while the engine is in
// disk-degraded read-only mode. The mutation was NOT applied; reads and
// clock advances continue to be served from memory.
var ErrReadOnly = errors.New("engine: disk degraded, database is read-only")

// DurabilityState describes the engine's durability posture.
type DurabilityState uint8

const (
	// DurabilityMemoryOnly: no WAL configured (or not yet opened).
	DurabilityMemoryOnly DurabilityState = iota
	// DurabilityHealthy: the WAL is open and accepting writes.
	DurabilityHealthy
	// DurabilityDegraded: a WAL I/O failure put the engine in read-only
	// mode; background recovery is retrying.
	DurabilityDegraded
)

// String names the state.
func (s DurabilityState) String() string {
	switch s {
	case DurabilityHealthy:
		return "healthy"
	case DurabilityDegraded:
		return "degraded"
	default:
		return "memory-only"
	}
}

// defaultDiskBackoff is the initial retry interval of the background
// recovery loop; it doubles per failed attempt up to 32x.
const defaultDiskBackoff = 250 * time.Millisecond

// WithVFS makes the engine's durability layer access the disk through
// fsys — production uses the passthrough default, tests inject
// vfs.FaultFS to script fsync failures, ENOSPC, EIO and torn writes.
func WithVFS(fsys vfs.FS) Option {
	return func(e *Engine) { e.walFS = fsys }
}

// WithDiskRetryBackoff sets the initial backoff between background WAL
// recovery attempts (doubling, capped at 32x, with up to 25% jitter).
func WithDiskRetryBackoff(d time.Duration) Option {
	return func(e *Engine) {
		if d > 0 {
			e.diskBackoff = d
		}
	}
}

// walFSOrOS returns the configured durability filesystem.
func (e *Engine) walFSOrOS() vfs.FS {
	if e.walFS != nil {
		return e.walFS
	}
	return vfs.OS()
}

// DurabilityState reports the engine's current durability posture.
func (e *Engine) DurabilityState() DurabilityState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.log == nil {
		return DurabilityMemoryOnly
	}
	if e.degraded {
		return DurabilityDegraded
	}
	return DurabilityHealthy
}

// DegradedErr returns the I/O failure that put the engine in degraded
// mode (nil when not degraded).
func (e *Engine) DegradedErr() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if !e.degraded {
		return nil
	}
	return e.degradedErr
}

// walFail reacts to a WAL write/fsync failure observed by err.
// canRecover means the caller holds no engine locks (the mutation
// paths, which fsync after unlocking), so an inline recovery attempt is
// allowed; Advance/Sweep/Checkpoint pass false because they hold advMu.
//
// For ENOSPC with canRecover, reclamation runs inline: if it succeeds
// the engine never degrades and walFail returns nil — the caller's
// mutation is durably captured by the recovery checkpoint, so
// acknowledging it is correct. Every other failure (or a failed
// reclamation) transitions to degraded mode and returns the error; the
// caller's mutation is applied in memory but of indeterminate
// durability until recovery checkpoints it.
func (e *Engine) walFail(err error, canRecover bool) error {
	if err == nil {
		return nil
	}
	if canRecover && errors.Is(err, syscall.ENOSPC) {
		// TryLock: a trigger-invoked mutation runs on the Advance
		// goroutine with advMu already held — blocking here would
		// self-deadlock. If the pipeline is busy, degrade and let the
		// background loop reclaim instead.
		if e.advMu.TryLock() {
			rerr := e.recoverDiskLocked()
			e.advMu.Unlock()
			if rerr == nil {
				return nil
			}
		}
	}
	e.setDegraded(err)
	return err
}

// setDegraded transitions to read-only degraded mode (idempotent) and
// starts the background recovery loop.
func (e *Engine) setDegraded(cause error) {
	e.mu.Lock()
	if e.log == nil || e.degraded {
		e.mu.Unlock()
		return
	}
	e.degraded = true
	e.degradedErr = cause
	stop := make(chan struct{})
	done := make(chan struct{})
	e.retryStop, e.retryDone = stop, done
	now := e.now
	e.mu.Unlock()
	e.m.DiskFaults.Inc()
	e.events.Emit(trace.Event{
		Trace: trace.NextID(), Kind: trace.EvDiskDegraded,
		Name: cause.Error(), Tick: now,
	})
	go e.diskRecoveryLoop(stop, done)
}

// diskRecoveryLoop retries recovery with capped jittered exponential
// backoff until it succeeds or the engine shuts down.
func (e *Engine) diskRecoveryLoop(stop, done chan struct{}) {
	defer close(done)
	backoff := e.diskBackoff
	if backoff <= 0 {
		backoff = defaultDiskBackoff
	}
	maxBackoff := 32 * backoff
	for {
		// Full backoff plus up to 25% jitter, so a fleet degrading
		// together does not retry in lockstep.
		d := backoff + time.Duration(rand.Int63n(int64(backoff/4)+1))
		timer := time.NewTimer(d)
		select {
		case <-stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		e.m.DiskRetries.Inc()
		e.advMu.Lock()
		err := e.recoverDiskLocked()
		e.advMu.Unlock()
		if err == nil {
			e.mu.Lock()
			if e.retryStop == stop {
				e.retryStop, e.retryDone = nil, nil
			}
			e.mu.Unlock()
			return
		}
		if backoff < maxBackoff {
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
	}
}

// TryDiskRecovery runs one recovery attempt synchronously — the same
// routine the background loop retries — and reports its outcome. Useful
// for operational tooling and deterministic tests; a healthy engine
// returns nil immediately.
func (e *Engine) TryDiskRecovery() error {
	e.advMu.Lock()
	defer e.advMu.Unlock()
	return e.recoverDiskLocked()
}

// recoverDiskLocked attempts to restore durability. Caller holds advMu,
// which is what makes the recovered snapshot exact: no advance can move
// the clock between the state capture and the log swap, so the snapshot
// plus the (empty) new segment describe precisely the in-memory state —
// including every mutation applied before the fault and everything that
// expired while degraded.
func (e *Engine) recoverDiskLocked() error {
	e.mu.RLock()
	old, degraded, cause := e.log, e.degraded, e.degradedErr
	e.mu.RUnlock()
	if old == nil {
		return nil // memory-only: nothing to recover
	}
	if !degraded {
		cause = old.Err()
		if cause == nil || errors.Is(cause, wal.ErrClosed) {
			return nil // healthy (or cleanly shut down): nothing to recover
		}
	}

	// ENOSPC: reclaim the paper's way before anything else — expired
	// tuples are dead space. The forced sweep physically removes them
	// (firing their overdue triggers), the checkpoint below then only
	// contains live rows, and its RemoveBelow frees every old
	// generation. The old generations stay durable until the compacted
	// snapshot lands, so the snapshot needs space the full disk does not
	// have — that is what the WAL's pre-allocated headroom file is for:
	// release it now, write the snapshot into the freed bytes.
	var events []firedEvent
	if errors.Is(cause, syscall.ENOSPC) {
		e.m.DiskReclamations.Inc()
		e.mu.RLock()
		now := e.now
		e.mu.RUnlock()
		events = e.sweepTables(now, trace.NextID(), false, false)
		old.ReleaseReserve()
	}

	// The fresh log is not installed as e.log until its snapshot is
	// durable, and its active segment is still empty. Mutations concurrent
	// with the capture are impossible — the engine is degraded (writes
	// rejected) or its old log is poisoned (writes fail explicitly) — so
	// the capture is exact.
	log2, err := wal.Reopen(old.Dir(), old.FS())
	if err == nil {
		if _, cerr := e.checkpoint(log2, func() (uint64, error) { return log2.Gen(), nil }); cerr != nil {
			log2.Close()
			err = cerr
		}
	}
	if err != nil {
		// The reclamation sweep's removals are already visible in
		// memory; their triggers owe a fire regardless of the attempt's
		// outcome.
		e.dispatch(events)
		return err
	}

	e.mu.Lock()
	e.log = log2
	e.degraded = false
	e.degradedErr = nil
	now := e.now
	e.mu.Unlock()
	old.Close() // poisoned (or still healthy after inline ENOSPC); release the fd
	// RemoveBelow has freed the old generations; restore the emergency
	// headroom for the next ENOSPC (best effort).
	log2.EnsureReserve()
	e.m.DiskRecoveries.Inc()
	e.events.Emit(trace.Event{
		Trace: trace.NextID(), Kind: trace.EvDiskRecovered,
		Tick: now, Count: e.m.DiskRetries.Load(),
	})
	e.dispatch(events)
	return nil
}
