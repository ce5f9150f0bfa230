package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionRoundTrip renders a registry carrying every metric
// kind — including label values that need escaping — and requires the
// strict parser to accept it and recover the exact values.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("lb_requests_total", "Total requests.", Label{"path", "/tasks"})
	c.Add(41)
	c.Inc()
	r.NewCounterScaled("lb_busy_seconds_total", "Busy time.", 1e-9)
	g := r.NewGauge("lb_queue_depth", "Current queue depth.")
	g.Set(17.5)
	r.NewGaugeFunc("lb_live", "Liveness func gauge.", func() float64 { return 1 })
	nasty := r.NewGauge("lb_nasty", "Label escaping.",
		Label{"v", "a\\b\"c\nd"})
	nasty.Set(-3)
	h := r.NewHistogram("lb_batch_size", "Batch sizes.", 8)
	for _, v := range []int64{0, 1, 2, 3, 7, 100, 1 << 40} {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("write: %v", err)
	}
	text := sb.String()

	fams, err := ParseExposition(text)
	if err != nil {
		t.Fatalf("parse of own exposition failed: %v\n%s", err, text)
	}
	if err := RequireSeries(fams,
		"lb_requests_total", "lb_busy_seconds_total", "lb_queue_depth",
		"lb_live", "lb_nasty", "lb_batch_size"); err != nil {
		t.Fatal(err)
	}

	req := fams["lb_requests_total"]
	if req.Type != "counter" || len(req.Samples) != 1 {
		t.Fatalf("lb_requests_total: type=%q samples=%d", req.Type, len(req.Samples))
	}
	if got := req.Samples[0]; got.Value != 42 || got.Labels["path"] != "/tasks" {
		t.Fatalf("lb_requests_total sample = %+v", got)
	}
	if got := fams["lb_nasty"].Samples[0].Labels["v"]; got != "a\\b\"c\nd" {
		t.Fatalf("label escaping round-trip: got %q", got)
	}
	if got := fams["lb_queue_depth"].Samples[0].Value; got != 17.5 {
		t.Fatalf("gauge = %g", got)
	}

	hist := fams["lb_batch_size"]
	if hist.Type != "histogram" {
		t.Fatalf("lb_batch_size type = %q", hist.Type)
	}
	var count, sum, inf float64
	sawInf := false
	for _, s := range hist.Samples {
		switch s.Name {
		case "lb_batch_size_count":
			count = s.Value
		case "lb_batch_size_sum":
			sum = s.Value
		case "lb_batch_size_bucket":
			if s.Labels["le"] == "+Inf" {
				sawInf, inf = true, s.Value
			}
		}
	}
	if !sawInf || count != 7 || inf != 7 {
		t.Fatalf("histogram: count=%g +Inf=%g sawInf=%v", count, inf, sawInf)
	}
	// The finite le values are the log-linear upper bounds, in order:
	// 1..8 for the exact buckets, then 2³ per octave up to 2⁸.
	var les []string
	cum := map[string]float64{}
	for _, s := range hist.Samples {
		if s.Name == "lb_batch_size_bucket" && s.Labels["le"] != "+Inf" {
			les = append(les, s.Labels["le"])
			cum[s.Labels["le"]] = s.Value
		}
	}
	if len(les) != histogramBuckets(8)-1 {
		t.Fatalf("histogram has %d finite buckets, want %d", len(les), histogramBuckets(8)-1)
	}
	for k, le := range les {
		if want := formatValue(float64(bucketUpper(k))); le != want {
			t.Fatalf("bucket %d: le=%s, want %s", k, le, want)
		}
	}
	if les[len(les)-1] != "256" {
		t.Fatalf("last finite le = %s, want 256", les[len(les)-1])
	}
	// 0, 1, 2, 3 and 7 lie below 8; 100 lies in [96, 104).
	if cum["8"] != 5 || cum["96"] != 5 || cum["104"] != 6 || cum["256"] != 6 {
		t.Fatalf("cumulative counts le=8:%g le=96:%g le=104:%g le=256:%g, want 5 5 6 6",
			cum["8"], cum["96"], cum["104"], cum["256"])
	}
	if want := float64(0 + 1 + 2 + 3 + 7 + 100 + 1<<40); sum != want {
		t.Fatalf("histogram sum = %g, want %g", sum, want)
	}
}

// TestParserRejections feeds the strict parser malformed exposition
// and requires a rejection for each defect class.
func TestParserRejections(t *testing.T) {
	cases := map[string]string{
		"bad metric name":    "# TYPE 1bad counter\n1bad 1\n",
		"bad type":           "# TYPE x widget\nx 1\n",
		"sample before TYPE": "orphan 1\n",
		"bad value":          "# TYPE x counter\nx one\n",
		"negative counter":   "# TYPE x counter\nx -1\n",
		"duplicate series":   "# TYPE x counter\nx 1\nx 2\n",
		"bad escape":         "# TYPE x counter\nx{l=\"a\\q\"} 1\n",
		"unterminated label": "# TYPE x counter\nx{l=\"a 1\n",
		"bad label name":     "# TYPE x counter\nx{0l=\"a\"} 1\n",
		"missing +Inf bucket": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"non-monotone buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 6\n",
		"duplicate TYPE": "# TYPE x counter\n# TYPE x counter\nx 1\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(text); err == nil {
			t.Errorf("%s: parser accepted %q", name, text)
		}
	}
}

// TestParserAcceptsTimestamps covers the optional trailing timestamp.
func TestParserAcceptsTimestamps(t *testing.T) {
	fams, err := ParseExposition("# TYPE x gauge\nx{a=\"b\"} 2.5 1700000000000\n")
	if err != nil {
		t.Fatalf("timestamped sample rejected: %v", err)
	}
	if fams["x"].Samples[0].Value != 2.5 {
		t.Fatalf("value = %g", fams["x"].Samples[0].Value)
	}
}

// TestHistogramBuckets pins the log-linear ladder: exact buckets for
// 0..7, then 2³ contiguous buckets per octave whose width is at most
// 1/8 of their lower bound, the overflow clamp, and quantiles read as
// bucket upper bounds within 12.5% of the observed value.
func TestHistogramBuckets(t *testing.T) {
	for v, want := range map[int64]int{-5: 0, 0: 0, 1: 1, 7: 7, 8: 8, 15: 15, 16: 16, 17: 16, 18: 17, 31: 23, 32: 24} {
		if got := BucketOf(v, histogramBuckets(20)); got != want {
			t.Fatalf("BucketOf(%d) = %d, want %d", v, got, want)
		}
	}
	n := histogramBuckets(8)
	if n != 49 {
		t.Fatalf("an 8-octave histogram has %d buckets, want 49", n)
	}
	if got := BucketOf(1<<40, n); got != n-1 {
		t.Fatalf("BucketOf(2^40, %d buckets) = %d", n, got)
	}
	if got := BucketOf(1<<8, n); got != n-1 {
		t.Fatalf("BucketOf(2^8, %d buckets) = %d, want the overflow bucket", n, got)
	}
	lower := int64(0)
	for v := int64(0); v < 1<<16; v++ {
		k := BucketOf(v, histogramBuckets(20))
		if k > 0 {
			lower = bucketUpper(k - 1)
		} else {
			lower = 0
		}
		up := bucketUpper(k)
		if v < lower || v >= up {
			t.Fatalf("value %d in bucket %d = [%d, %d)", v, k, lower, up)
		}
		if v >= 8 && float64(up-lower) > float64(lower)/8 {
			t.Fatalf("bucket %d = [%d, %d) is wider than 1/8 of its lower bound", k, lower, up)
		}
	}
	r := NewRegistry()
	h := r.NewHistogram("q", "", 16)
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g", q)
	}
	for i := 0; i < 100; i++ {
		h.Observe(900) // bucket [896, 960)
	}
	if q := h.Quantile(0.5); q != 960 {
		t.Fatalf("p50 of all-900s = %g, want bucket upper bound 960", q)
	}
	if q := h.Quantile(0.99); q != 960 {
		t.Fatalf("p99 of all-900s = %g, want 960", q)
	}
	h.Observe(1 << 40)
	if q := h.Quantile(1); q != 1<<16 {
		t.Fatalf("quantile in the overflow bucket = %g, want its lower bound 2^16", q)
	}
}

// TestCounterSetMonotone pins Counter.Set's high-water semantics.
func TestCounterSetMonotone(t *testing.T) {
	var c Counter
	c.Set(10)
	c.Set(4)
	if c.Value() != 10 {
		t.Fatalf("Set lowered a counter: %d", c.Value())
	}
	c.Set(12)
	if c.Value() != 12 {
		t.Fatalf("Set did not raise: %d", c.Value())
	}
}

// TestRegistryHammer pounds counters, gauges, and histograms from many
// goroutines while a reader scrapes, under -race in CI. Totals must
// balance exactly afterwards.
func TestRegistryHammer(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("hammer_total", "")
	g := r.NewGauge("hammer_gauge", "")
	h := r.NewHistogram("hammer_hist", "", 20)

	const workers = 8
	const perWorker = 10000
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() { // concurrent scraper
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if _, err := ParseExposition(sb.String()); err != nil {
				t.Errorf("mid-hammer exposition invalid: %v", err)
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(float64(i))
				h.Observe(int64(i % 1024))
			}
		}()
	}
	writers.Wait()
	close(stop)
	scraper.Wait()

	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	if g.Value() != perWorker-1 {
		t.Fatalf("gauge max = %g, want %d", g.Value(), perWorker-1)
	}
	var wantSum int64
	for i := 0; i < perWorker; i++ {
		wantSum += int64(i % 1024)
	}
	if h.Sum() != wantSum*workers {
		t.Fatalf("histogram sum = %d, want %d", h.Sum(), wantSum*workers)
	}
}

// TestSpanRecorder covers recording, the drop bound, nil-safety, and
// the Chrome-trace JSON shape.
func TestSpanRecorder(t *testing.T) {
	var nilRec *SpanRecorder
	nilRec.Span(0, 0, "ok-on-nil", time.Now(), time.Millisecond) // must not panic
	if nilRec.Len() != 0 || nilRec.Dropped() != 0 {
		t.Fatal("nil recorder reported events")
	}

	r := NewSpanRecorder(2)
	base := time.Unix(1000, 0)
	r.Span(1, 0, "decide", base.Add(time.Millisecond), 2*time.Millisecond)
	r.Span(1, 0, "commit", base.Add(3*time.Millisecond), time.Millisecond)
	r.Span(1, 0, "overflow", base.Add(4*time.Millisecond), time.Millisecond)
	if r.Len() != 2 || r.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", r.Len(), r.Dropped())
	}

	var sb strings.Builder
	if err := r.WriteChromeTrace(&sb); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	out := sb.String()
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"name":"decide"`, `"droppedSpans":1`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace JSON missing %s:\n%s", want, out)
		}
	}
}

// TestFormatPhases pins the shared formatter's output — the exact
// string lbsim prints and serve embeds.
func TestFormatPhases(t *testing.T) {
	got := FormatPhases(40,
		PhaseBreakdown{"snapshot", 48 * time.Millisecond},
		PhaseBreakdown{"decide", 1200 * time.Millisecond},
		PhaseBreakdown{"commit", 352 * time.Millisecond},
	)
	want := "snapshot 1.2ms/round (3%), decide 30ms/round (75%), commit 8.8ms/round (22%) over 40 rounds"
	if got != want {
		t.Fatalf("FormatPhases:\n got %q\nwant %q", got, want)
	}
	if got := FormatPhases(0); got != "no rounds timed" {
		t.Fatalf("zero rounds: %q", got)
	}
}

// TestQuantileOfMatchesFloatMath sanity-checks QuantileOf on a spread
// distribution: each quantile is the upper bound of the bucket holding
// it, within 12.5% above the observed value.
func TestQuantileOfMatchesFloatMath(t *testing.T) {
	hist := make([]uint64, histogramBuckets(10))
	hist[BucketOf(100, len(hist))] = 90 // [96, 104)
	hist[BucketOf(700, len(hist))] = 10 // [640, 704)
	if q := QuantileOf(hist, 0.5); q != 104 {
		t.Fatalf("p50 = %g, want 104", q)
	}
	if q := QuantileOf(hist, 0.95); q != 704 {
		t.Fatalf("p95 = %g, want 704", q)
	}
}
