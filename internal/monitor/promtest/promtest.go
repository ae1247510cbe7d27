// Package promtest is the Prometheus text-format (version 0.0.4) grammar
// linter the tests hold every exposition to. It has its own label type and
// does not import monitor, so monitor's own tests can use it.
package promtest

import (
	"fmt"
	"strconv"
	"strings"
)

// label is one key="value" pair of a parsed sample.
type label struct {
	Key   string
	Value string
}

// Lint validates a Prometheus text exposition against the
// grammar rules a scraper cares about:
//
//   - metric names match [a-zA-Z_:][a-zA-Z0-9_:]*, label names
//     [a-zA-Z_][a-zA-Z0-9_]*
//   - every sample belongs to a family with a preceding # TYPE line of a
//     known type, declared exactly once
//   - all samples of a family are contiguous, with no duplicate series
//     (same name and label set twice)
//   - histogram series have strictly increasing le boundaries,
//     non-decreasing cumulative bucket counts, a closing le="+Inf"
//     bucket, and a _count equal to the +Inf bucket
func Lint(data []byte) error {
	type family struct {
		typ    string
		closed bool
	}
	fams := make(map[string]*family)
	cur := ""
	seenSeries := make(map[string]bool)
	type histSeries struct {
		prevLe    float64
		prevCount float64
		haveProto bool // at least one bucket seen
		infCount  float64
		infSeen   bool
		countVal  float64
		countSeen bool
	}
	hists := make(map[string]*histSeries)
	histOrder := []string{}

	enter := func(name string, lineNo int) (*family, error) {
		f := fams[name]
		if f == nil {
			return nil, fmt.Errorf("line %d: sample for %s without a preceding # TYPE", lineNo, name)
		}
		if name != cur {
			if f.closed {
				return nil, fmt.Errorf("line %d: family %s not contiguous", lineNo, name)
			}
			if cur != "" {
				fams[cur].closed = true
			}
			cur = name
		}
		return f, nil
	}

	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				// Free-form comment: legal, ignored.
				continue
			}
			name := fields[2]
			if !validMetricName(name) {
				return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE line", lineNo)
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q for %s", lineNo, typ, name)
				}
				if f := fams[name]; f != nil {
					return fmt.Errorf("line %d: duplicate TYPE for family %s", lineNo, name)
				}
				if cur != "" && cur != name {
					fams[cur].closed = true
				}
				fams[name] = &family{typ: typ}
				cur = name
			}
			continue
		}

		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if !validMetricName(name) {
			return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
		}
		for _, l := range labels {
			if !validLabelName(l.Key) {
				return fmt.Errorf("line %d: invalid label name %q", lineNo, l.Key)
			}
		}

		// Resolve the sample's family: histogram children first.
		famName := name
		role := "plain"
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name {
				if f := fams[base]; f != nil && f.typ == "histogram" {
					famName = base
					role = suffix
					break
				}
			}
		}
		f, err := enter(famName, lineNo)
		if err != nil {
			return err
		}
		if f.typ == "histogram" && role == "plain" {
			return fmt.Errorf("line %d: bare sample %s in histogram family", lineNo, name)
		}

		seriesKey := name + "{" + labelKey(labels, true) + "}"
		if seenSeries[seriesKey] {
			return fmt.Errorf("line %d: duplicate series %s", lineNo, seriesKey)
		}
		seenSeries[seriesKey] = true

		if f.typ != "histogram" {
			continue
		}
		// Histogram bookkeeping, keyed by the series identity minus le.
		hk := famName + "{" + labelKey(labels, false) + "}"
		hs := hists[hk]
		if hs == nil {
			hs = &histSeries{}
			hists[hk] = hs
			histOrder = append(histOrder, hk)
		}
		switch role {
		case "_bucket":
			le, ok := findLabel(labels, "le")
			if !ok {
				return fmt.Errorf("line %d: bucket sample without le label", lineNo)
			}
			if hs.infSeen {
				return fmt.Errorf("line %d: bucket after le=\"+Inf\" in %s", lineNo, hk)
			}
			if le == "+Inf" {
				hs.infSeen = true
				hs.infCount = value
				if hs.haveProto && value < hs.prevCount {
					return fmt.Errorf("line %d: +Inf bucket count %v below previous %v in %s", lineNo, value, hs.prevCount, hk)
				}
				continue
			}
			lv, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("line %d: unparseable le %q", lineNo, le)
			}
			if hs.haveProto {
				if lv <= hs.prevLe {
					return fmt.Errorf("line %d: le %v not increasing (previous %v) in %s", lineNo, lv, hs.prevLe, hk)
				}
				if value < hs.prevCount {
					return fmt.Errorf("line %d: cumulative bucket count %v decreased (previous %v) in %s", lineNo, value, hs.prevCount, hk)
				}
			}
			hs.haveProto = true
			hs.prevLe, hs.prevCount = lv, value
		case "_count":
			hs.countVal, hs.countSeen = value, true
		}
	}

	for _, hk := range histOrder {
		hs := hists[hk]
		if !hs.infSeen {
			return fmt.Errorf("histogram %s missing le=\"+Inf\" bucket", hk)
		}
		if !hs.countSeen {
			return fmt.Errorf("histogram %s missing _count sample", hk)
		}
		if hs.countVal != hs.infCount {
			return fmt.Errorf("histogram %s _count %v != +Inf bucket %v", hk, hs.countVal, hs.infCount)
		}
	}
	return nil
}

// parseSampleLine splits `name{labels} value [timestamp]`.
func parseSampleLine(line string) (name string, labels []label, value float64, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name = line[:i]
	if name == "" {
		return "", nil, 0, fmt.Errorf("missing metric name")
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " \t")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label block")
			}
			key := strings.TrimSpace(rest[:eq])
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				return "", nil, 0, fmt.Errorf("label value for %s not quoted", key)
			}
			rest = rest[1:]
			var val strings.Builder
			closed := false
			for len(rest) > 0 {
				c := rest[0]
				if c == '\\' && len(rest) > 1 {
					switch rest[1] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[1])
					}
					rest = rest[2:]
					continue
				}
				rest = rest[1:]
				if c == '"' {
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label value for %s", key)
			}
			labels = append(labels, label{Key: key, Value: val.String()})
			rest = strings.TrimLeft(rest, " \t")
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("expected value (and optional timestamp), got %q", rest)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("unparseable value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("unparseable timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

// labelKey canonicalises a label set for identity checks; withLe keeps
// the le label (series identity) or drops it (histogram identity).
func labelKey(labels []label, withLe bool) string {
	var parts []string
	for _, l := range labels {
		if !withLe && l.Key == "le" {
			continue
		}
		parts = append(parts, l.Key+"="+l.Value)
	}
	// Insertion sort: label blocks are tiny.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, ",")
}

// findLabel returns the value of key in labels.
func findLabel(labels []label, key string) (string, bool) {
	for _, l := range labels {
		if l.Key == key {
			return l.Value, true
		}
	}
	return "", false
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
