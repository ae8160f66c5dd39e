package distwindow

import "errors"

// Sentinel errors returned (wrapped, with detail) by TryObserve and
// ObserveBatch. Match with errors.Is.
var (
	// ErrSiteRange reports a site index outside [0, Config.Sites).
	ErrSiteRange = errors.New("distwindow: site index out of range")
	// ErrDimension reports a row whose length differs from Config.D.
	ErrDimension = errors.New("distwindow: row dimension mismatch")
	// ErrNonFinite reports a row (or aggregate weight) holding NaN or ±Inf.
	// One such value would poison the sketch for good, so the row is
	// refused before any state changes.
	ErrNonFinite = errors.New("distwindow: non-finite value")
	// ErrStale reports a row that cannot be delivered because its timestamp
	// is in the past: older than the maximum timestamp already observed
	// (without MaxSkew), or beyond the skew horizon (with MaxSkew). Stale
	// rows are dropped and counted in Metrics; they are not an invariant
	// violation, so ingestion can continue (ObserveBatch skips them).
	ErrStale = errors.New("distwindow: stale timestamp")
	// ErrClosed reports ingest into a tracker that was closed, directly or
	// by Registry.Evict. The row is refused and no state changes.
	ErrClosed = errors.New("distwindow: tracker closed")
)

// Sentinel errors returned (wrapped, with detail) by Restore. Match with
// errors.Is.
var (
	// ErrCheckpointCorrupt reports a checkpoint that cannot be trusted:
	// undecodable bytes, a configuration that fails validation, or missing
	// tracker state.
	ErrCheckpointCorrupt = errors.New("distwindow: corrupt checkpoint")
	// ErrCheckpointMismatch reports a checkpoint whose declared protocol
	// disagrees with the state it actually carries — e.g. a DA1 header over
	// a DA2 snapshot. Restoring it would silently run the wrong protocol,
	// so the mismatch is an error rather than a best-effort guess.
	ErrCheckpointMismatch = errors.New("distwindow: checkpoint protocol mismatch")
)

// ErrOptionUnsupported is returned (wrapped, with detail) by constructors
// handed an option their tracker variant cannot honor — e.g. WithParallel,
// WithTracing or WithAudit on NewAggregate, whose scalar tracker has
// neither a pipeline nor a matrix shadow path. Match with errors.Is.
var ErrOptionUnsupported = errors.New("distwindow: option unsupported")

// ErrParallelUnsupported is returned (wrapped, with detail) by New when
// WithParallel is combined with a configuration the pipeline cannot run:
// a sampling-family protocol (their coordinator talks back to the sites, so
// ingestion cannot be split into independent site lanes), or tracing/audit
// instrumentation, which assumes the sequential path.
var ErrParallelUnsupported = errors.New("distwindow: parallel ingestion unsupported")
