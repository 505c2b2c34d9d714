package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// MetricType is the Prometheus exposition type of a metric family.
type MetricType int

const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance under a family. Exactly one of the value
// fields is set.
type series struct {
	labels  string // pre-rendered `{k="v",...}`, or "" for the bare series
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64
}

// family is all series sharing one metric name.
type family struct {
	name, help string
	typ        MetricType
	series     []series
}

// Registry maps metric values to exposition names and renders them in the
// Prometheus text format. Registration happens at startup and may allocate;
// scraping reads the registered atomics directly. The registry never touches
// a hot path: components own their metric structs and a Registry is only the
// naming and rendering layer over them.
//
// Families and series render in registration order, which makes the output
// deterministic (golden-testable) without sorting at scrape time.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
	hooks  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnGather registers fn to run at the start of every WritePrometheus call,
// before any value is read — the hook point for collectors that snapshot
// expensive state (e.g. runtime.ReadMemStats) once per scrape. Hooks and
// value funcs run under the registry lock, so they never race a concurrent
// scrape.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// Counter registers c under name. labels are alternating key/value pairs
// bound as constant labels of this series. Registering a second series under
// the same name requires matching help text; a duplicate label signature or
// a name reused with a different type panics — misregistration is a startup
// programming error, not a runtime condition.
func (r *Registry) Counter(name, help string, c *Counter, labels ...string) {
	r.register(name, help, TypeCounter, series{labels: labelString(labels), counter: c})
}

// CounterFunc registers a counter series computed by fn at scrape time —
// the bridge for values something else already keeps (e.g. the runtime's GC
// cycle count). fn must be monotone for the series to behave as a Prometheus
// counter.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...string) {
	r.register(name, help, TypeCounter, series{labels: labelString(labels), fn: fn})
}

// Gauge registers g under name.
func (r *Registry) Gauge(name, help string, g *Gauge, labels ...string) {
	r.register(name, help, TypeGauge, series{labels: labelString(labels), gauge: g})
}

// GaugeFunc registers a gauge series computed by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...string) {
	r.register(name, help, TypeGauge, series{labels: labelString(labels), fn: fn})
}

// Histogram registers h under name.
func (r *Registry) Histogram(name, help string, h *Histogram, labels ...string) {
	r.register(name, help, TypeHistogram, series{labels: labelString(labels), hist: h})
}

func (r *Registry) register(name, help string, typ MetricType, s series) {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	} else {
		if f.typ != typ {
			panic("obs: metric " + name + " reregistered as " + typ.String() + ", was " + f.typ.String())
		}
		if f.help != help {
			panic("obs: metric " + name + " reregistered with different help text")
		}
		for _, prev := range f.series {
			if prev.labels == s.labels {
				panic("obs: duplicate series " + name + s.labels)
			}
		}
	}
	f.series = append(f.series, s)
}

// validMetricName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// labelString renders alternating key/value pairs as `{k="v",...}`, escaping
// values per the exposition format. An empty pair list renders as "".
func labelString(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

// WritePrometheus renders every registered family in the text exposition
// format (version 0.0.4). Values are read from the live atomics: a scrape
// during traffic sees each counter's instantaneous value, consistent per
// counter rather than across counters, which is the usual Prometheus
// contract.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, hook := range r.hooks {
		hook()
	}
	var b strings.Builder
	for _, f := range r.fams {
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ.String())
		b.WriteByte('\n')
		for _, s := range f.series {
			if s.hist != nil {
				writeHistogram(&b, f.name, s.labels, s.hist)
				continue
			}
			var v int64
			switch {
			case s.counter != nil:
				v = s.counter.Load()
			case s.gauge != nil:
				v = s.gauge.Load()
			default:
				v = s.fn()
			}
			b.WriteString(f.name)
			b.WriteString(s.labels)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(v, 10))
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative le-buckets, then
// _sum and _count. le merges into the series' constant labels.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	buckets, total := h.snapshot()
	var cum int64
	for i, n := range buckets {
		cum += n
		// Empty finite buckets below the maximum are skipped to keep the
		// output compact; cumulative semantics make the elided points
		// recoverable, and the +Inf bucket always renders.
		if n == 0 && i < HistogramBuckets-1 {
			continue
		}
		bound := "+Inf"
		if ub := BucketBound(i); ub >= 0 {
			bound = strconv.FormatInt(ub, 10)
		}
		b.WriteString(name)
		b.WriteString("_bucket")
		writeMergedLabels(b, labels, bound)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(cum, 10))
		b.WriteByte('\n')
	}
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(h.Sum(), 10))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(total, 10))
	b.WriteByte('\n')
}

// writeMergedLabels appends labels with an le pair merged in.
func writeMergedLabels(b *strings.Builder, labels, le string) {
	if labels == "" {
		b.WriteString(`{le="`)
		b.WriteString(le)
		b.WriteString(`"}`)
		return
	}
	b.WriteString(labels[:len(labels)-1]) // drop the closing brace
	b.WriteString(`,le="`)
	b.WriteString(le)
	b.WriteString(`"}`)
}

// ExemplarRef links one histogram bucket to the trace id last observed into
// it, as collected by Registry.Exemplars.
type ExemplarRef struct {
	Name     string // metric family name
	Labels   string // pre-rendered series labels, "" for the bare series
	BucketLe int64  // bucket upper bound (ns); -1 for the +Inf bucket
	TraceID  uint64
}

// Exemplars walks every registered histogram and returns the non-empty
// bucket exemplars — the join table between the latency histograms on
// /metrics and the traces on /debug/traces. Exemplars never appear in the
// Prometheus text output, which stays byte-stable whether or not tracing
// runs.
func (r *Registry) Exemplars() []ExemplarRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []ExemplarRef
	for _, f := range r.fams {
		for _, s := range f.series {
			if s.hist == nil {
				continue
			}
			for i := 0; i < HistogramBuckets; i++ {
				id := s.hist.Exemplar(i)
				if id == 0 {
					continue
				}
				out = append(out, ExemplarRef{
					Name:     f.name,
					Labels:   s.labels,
					BucketLe: BucketBound(i),
					TraceID:  id,
				})
			}
		}
	}
	return out
}

// Expose is a convenience for tests and CLIs: the full exposition as a
// string.
func (r *Registry) Expose() string {
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		return fmt.Sprintf("obs: render failed: %v", err)
	}
	return b.String()
}
