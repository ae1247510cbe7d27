package promtest

import "testing"

func TestLintRejections(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"sample without TYPE", "loose_metric 1\n"},
		{"duplicate TYPE", "# TYPE a counter\na 1\n# TYPE a counter\n"},
		{"unknown type", "# TYPE a widget\na 1\n"},
		{"bad metric name", "# TYPE 9a counter\n9a 1\n"},
		{"bad label name", "# TYPE a counter\na{9k=\"v\"} 1\n"},
		{"non-contiguous family", "# TYPE a counter\na{l=\"1\"} 1\n# TYPE b counter\nb 1\na{l=\"2\"} 2\n"},
		{"duplicate series", "# TYPE a counter\na{l=\"1\"} 1\na{l=\"1\"} 2\n"},
		{"unparseable value", "# TYPE a counter\na pizza\n"},
		{"bare sample in histogram", "# TYPE h histogram\nh 5\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 5\n"},
		{"decreasing cumulative count", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n"},
		{"non-increasing le", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 4\nh_count 2\n"},
		{"missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"count != +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
		{"missing _count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n"},
	}
	for _, c := range cases {
		if err := Lint([]byte(c.in)); err == nil {
			t.Errorf("%s: lint accepted\n%s", c.name, c.in)
		}
	}
}

func TestLintAccepts(t *testing.T) {
	good := "# random comment\n" +
		"# HELP a Things.\n# TYPE a counter\na 1\n" +
		"# TYPE g gauge\ng{x=\"1\"} 2\ng{x=\"2\"} 3\n" +
		"# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 1\nh_bucket{le=\"4\"} 2\nh_bucket{le=\"+Inf\"} 3\n" +
		"h_sum 12\nh_count 3\n" +
		"# TYPE ts counter\nts 5 1700000000000\n"
	if err := Lint([]byte(good)); err != nil {
		t.Fatalf("lint rejected valid exposition: %v", err)
	}
}
