package monitor

import (
	"io"
	"strconv"
	"strings"

	"expdb/internal/metrics"
)

// This file is the hand-rolled Prometheus text-format (version 0.0.4)
// writer. No client library: the exposition format is a dozen grammar
// rules, and owning the writer keeps the dependency footprint at zero
// while the grammar linter in internal/monitor/promtest (run by the tests)
// keeps the output honest — names well-formed, TYPE before samples,
// families contiguous and unique, histogram buckets cumulative and closed
// by le="+Inf". The writer walks a Family table, so each family comes out
// contiguously by construction; a table that declares a family twice or
// a malformed name is caught by the linter over the real exposition.

// Label is one key="value" pair on a sample.
type Label struct {
	Key   string
	Value string
}

// WritePrometheus writes every present family of fams, in order: a
// family's # HELP and # TYPE before its first sample, then its samples —
// a histogram as cumulative _bucket samples per occupied power-of-two
// boundary, closed by le="+Inf", then _sum and _count.
func WritePrometheus(w io.Writer, fams []Family) error {
	var b strings.Builder
	for _, f := range fams {
		if f.Present != nil && !f.Present() {
			continue
		}
		typ := f.Kind.String()
		if f.Hist != nil {
			typ = "histogram"
		}
		head := "# HELP " + f.Name + " " + escapeHelp(f.Help) + "\n# TYPE " + f.Name + " " + typ + "\n"
		sample := func(name string, labels []Label, v int64) {
			b.WriteString(head)
			head = ""
			b.WriteString(seriesName(name, labels) + " " + strconv.FormatInt(v, 10) + "\n")
		}
		switch {
		case f.Scrape != nil:
			f.Scrape(func(labels []Label, v int64) { sample(f.Name, labels, v) })
		case f.Hist != nil:
			for i := range f.series() {
				writeHistogram(sample, f.Name, f.labels(i), f.Hist(i).Snapshot())
			}
		default:
			for i := range f.series() {
				sample(f.Name, f.labels(i), f.Value(i))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram writes one histogram series from a snapshot.
func writeHistogram(sample func(string, []Label, int64), name string, labels []Label, s metrics.HistogramSnapshot) {
	le := append(labels[:len(labels):len(labels)], Label{Key: "le"})
	cum := int64(0)
	for _, bk := range s.Buckets {
		cum += bk.Count
		le[len(labels)].Value = strconv.FormatInt(bk.Le, 10)
		sample(name+"_bucket", le, cum)
	}
	// Snapshots may tear between buckets and count; never let +Inf dip
	// below the cumulative sum or the exposition stops being a valid
	// histogram.
	inf := max(s.Count, cum)
	le[len(labels)].Value = "+Inf"
	sample(name+"_bucket", le, inf)
	sample(name+"_sum", labels, s.Sum)
	sample(name+"_count", labels, inf)
}

// seriesName renders name{key="value",...}, a sample's identity: the
// exposition prints it and the history names its series by it.
func seriesName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes HELP text per the exposition format.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}
