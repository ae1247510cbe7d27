package wire

import "expdb/internal/metrics"

// Metrics is the wire server's fault-tolerance instrumentation: every
// counter here measures a failure mode the server survived rather than
// died from. They are atomic (internal/metrics) so connection handlers
// update them without touching the server mutex.
type Metrics struct {
	// ConnsAccepted counts connections that completed the handshake and
	// entered the request loop.
	ConnsAccepted metrics.Counter
	// ConnsRejected counts connections turned away: over the connection
	// limit, failed handshake, or accepted while the server was closing.
	ConnsRejected metrics.Counter
	// HandshakeFailures counts peers that spoke the wrong protocol or
	// version (a subset of ConnsRejected).
	HandshakeFailures metrics.Counter
	// Timeouts counts connections closed because a read or write hit the
	// idle deadline.
	Timeouts metrics.Counter
	// PanicsRecovered counts handler panics caught by the per-connection
	// recover — each one would previously have killed the process.
	PanicsRecovered metrics.Counter
	// OversizedRejected counts frames whose length header exceeded the
	// max-message byte cap, refused before their body was read.
	OversizedRejected metrics.Counter
	// AcceptRetries counts temporary Accept errors the accept loop rode
	// out with backoff instead of exiting.
	AcceptRetries metrics.Counter
	// RequestsServed counts successfully answered requests.
	RequestsServed metrics.Counter
	// ActiveConns is the number of connections currently in their
	// request loop.
	ActiveConns metrics.Gauge
}

// MetricsSnapshot is a point-in-time copy of the wire server's
// fault-tolerance counters, shaped for JSON export alongside the engine
// snapshot.
type MetricsSnapshot struct {
	ConnsAccepted     int64 `json:"conns_accepted"`
	ConnsRejected     int64 `json:"conns_rejected"`
	HandshakeFailures int64 `json:"handshake_failures"`
	Timeouts          int64 `json:"timeouts"`
	PanicsRecovered   int64 `json:"panics_recovered"`
	OversizedRejected int64 `json:"oversized_rejected"`
	AcceptRetries     int64 `json:"accept_retries"`
	RequestsServed    int64 `json:"requests_served"`
	ActiveConns       int64 `json:"active_conns"`
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		ConnsAccepted:     m.ConnsAccepted.Load(),
		ConnsRejected:     m.ConnsRejected.Load(),
		HandshakeFailures: m.HandshakeFailures.Load(),
		Timeouts:          m.Timeouts.Load(),
		PanicsRecovered:   m.PanicsRecovered.Load(),
		OversizedRejected: m.OversizedRejected.Load(),
		AcceptRetries:     m.AcceptRetries.Load(),
		RequestsServed:    m.RequestsServed.Load(),
		ActiveConns:       m.ActiveConns.Load(),
	}
}
