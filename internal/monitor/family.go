package monitor

import "expdb/internal/metrics"

// Family is one metric family, declared once: WritePrometheus exposes it
// and History.RegisterFamilies samples it, so the exposition and the
// history cannot list different metrics or give one counter two names.
// A family has one series per fixed label set, read by Value (counters
// and gauges) or Hist (histograms); a family whose label values exist
// only at scrape time sets Scrape instead, and is exposed but never
// sampled.
type Family struct {
	Name, Help string
	// Kind is SeriesCounter or SeriesGauge; a family with Hist is a
	// histogram whatever its Kind.
	Kind SeriesKind
	// Labels holds one label set per series; nil is one unlabelled series.
	Labels [][]Label
	// Value reads series i. The sampler calls it every tick, so it must
	// be cheap and allocation-free.
	Value func(i int) int64
	// Hist returns series i's live histogram; nil reads as empty (the
	// histogram methods are nil-safe).
	Hist func(i int) *metrics.Histogram
	// Scrape emits every series of a family labelled at scrape time.
	Scrape func(emit func(labels []Label, v int64))
	// Present reports whether the exposition carries the family now (nil:
	// always). The history samples an absent family as its Value reads it,
	// which must then be zero.
	Present func() bool
}

// Counter declares an unlabelled counter family read by load.
func Counter(name, help string, load func() int64) Family {
	return Family{Name: name, Help: help, Value: func(int) int64 { return load() }}
}

// Gauge declares an unlabelled gauge family read by load.
func Gauge(name, help string, load func() int64) Family {
	return Family{Name: name, Help: help, Kind: SeriesGauge, Value: func(int) int64 { return load() }}
}

// Flag declares an unlabelled gauge family reading 1 while ok holds.
func Flag(name, help string, ok func() bool) Family {
	return Gauge(name, help, func() int64 { return flag(ok()) })
}

// Histogram declares an unlabelled histogram family over h.
func Histogram(name, help string, h *metrics.Histogram) Family {
	return Family{Name: name, Help: help, Hist: func(int) *metrics.Histogram { return h }}
}

// When makes fams present only while present holds.
func When(present func() bool, fams ...Family) []Family {
	for i := range fams {
		fams[i].Present = present
	}
	return fams
}

func flag(ok bool) int64 {
	if ok {
		return 1
	}
	return 0
}

func (f *Family) series() int { return max(len(f.Labels), 1) }

func (f *Family) labels(i int) []Label {
	if f.Labels == nil {
		return nil
	}
	return f.Labels[i]
}

// RegisterFamilies adds one history series per fixed-label sample of
// fams, named as the exposition names that sample: a counter or gauge as
// it is, a histogram by its _count, so `expdb_ring_entries_total{ring="events"}`
// and `expdb_slo_dispatch_lag_ticks_count{phase="steady"}` are series
// names. Scrape-time families are skipped. Nil-safe.
func (h *History) RegisterFamilies(fams []Family) error {
	for _, f := range fams {
		if f.Scrape != nil {
			continue
		}
		for i := range f.series() {
			name, kind, load := f.Name, f.Kind, func() int64 { return f.Value(i) }
			if f.Hist != nil {
				name, kind, load = name+"_count", SeriesCounter, func() int64 { return f.Hist(i).Count() }
			}
			if err := h.Register(seriesName(name, f.labels(i)), kind, load); err != nil {
				return err
			}
		}
	}
	return nil
}
