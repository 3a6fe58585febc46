package her

// Options configures a System. The zero value is usable; Normalize fills
// in the defaults below.
type Options struct {
	// EmbeddingDim is the dimension of the hashed label embeddings used
	// by M_v and as input features of M_ρ (default 128; the appendix-I
	// experiment sweeps {100, 200, 300}).
	EmbeddingDim int

	// Sigma, Delta and K are the thresholds of parametric simulation.
	// They can be set directly or learned with LearnThresholds. Defaults
	// follow the paper's defaults scaled to this repository's data:
	// σ = 0.8, δ = 1.2, k = 20.
	Sigma float64
	Delta float64
	K     int

	// MaxPathLen caps the length of property paths selected by h_r
	// (default 4 edges, the paper's training-path cap).
	MaxPathLen int

	// Seed drives all model initialization and training shuffles.
	Seed int64

	// Metrics, when non-nil, instruments the system: the sequential
	// matcher, the BSP engine's workers and supersteps, the sharded
	// serving engine (per-shard queue-wait/compute and gather
	// histograms, cache and singleflight counters), and (through
	// internal/server) the HTTP serving path all record into this
	// registry, exposable in Prometheus text format. Nil (the default)
	// disables instrumentation at effectively zero cost — every
	// recording site degrades to a single nil check. Request-scoped
	// tracing is independent of this registry: spans propagate through
	// context (WithSpan/SpanFrom) and land in the server's
	// FlightRecorder, traced or not.
	Metrics *MetricsRegistry
}

// The model sizes and the blocking selectivity are fixed, not options.
const (
	// metricHidden is the hidden width of the M_ρ metric network (the
	// paper uses a 3-layer net of widths 1536/256/1, scaled here with
	// the embeddings).
	metricHidden = 64
	// lstmEmbed and lstmHidden size the path language model M_r (the
	// paper uses 650 hidden units for a 195K label vocabulary).
	lstmEmbed, lstmHidden = 16, 32
	// minSharedTokens is the blocking selectivity of the candidate
	// inverted index: a candidate entity must share at least two tokens
	// of "critical information" with the tuple.
	minSharedTokens = 2
)

// Normalize returns a copy with defaults filled in.
func (o Options) Normalize() Options {
	if o.EmbeddingDim <= 0 {
		o.EmbeddingDim = 128
	}
	if o.Sigma <= 0 {
		o.Sigma = 0.8
	}
	if o.Delta <= 0 {
		o.Delta = 1.2
	}
	if o.K <= 0 {
		o.K = 20
	}
	if o.MaxPathLen <= 0 {
		o.MaxPathLen = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}
