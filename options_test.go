package distwindow_test

import (
	"errors"
	"testing"

	"distwindow"
)

func TestConfigValidate(t *testing.T) {
	good := distwindow.Config{Protocol: distwindow.DA1, D: 4, W: 100, Eps: 0.1, Sites: 3}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name  string
		mut   func(*distwindow.Config)
		field string
	}{
		{"protocol", func(c *distwindow.Config) { c.Protocol = "NOPE" }, "Protocol"},
		{"dimension", func(c *distwindow.Config) { c.D = 0 }, "D"},
		{"window", func(c *distwindow.Config) { c.W = 0 }, "W"},
		{"epsilon", func(c *distwindow.Config) { c.Eps = 1.5 }, "Eps"},
		{"sites", func(c *distwindow.Config) { c.Sites = 0 }, "Sites"},
		{"ell", func(c *distwindow.Config) { c.Ell = -1 }, "Ell"},
		{"skew", func(c *distwindow.Config) { c.MaxSkew = -5 }, "MaxSkew"},
		{"gamma", func(c *distwindow.Config) { c.Protocol = distwindow.Decay; c.DecayGamma = 1.5 }, "DecayGamma"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mut(&cfg)
			err := cfg.Validate()
			var ce *distwindow.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("Field = %q, want %q (msg %q)", ce.Field, tc.field, ce.Msg)
			}
			// New performs the identical validation.
			if _, nerr := distwindow.New(cfg); nerr == nil || nerr.Error() != err.Error() {
				t.Fatalf("New error %v != Validate error %v", nerr, err)
			}
		})
	}
	// Decay substitutes W internally; W = 0 must be fine for it.
	dec := distwindow.Config{Protocol: distwindow.Decay, D: 2, Eps: 0.1, Sites: 1, DecayGamma: 0.9}
	if err := dec.Validate(); err != nil {
		t.Fatalf("decay config with W=0 rejected: %v", err)
	}
}

func TestNewAggregateValidates(t *testing.T) {
	_, err := distwindow.NewAggregate(distwindow.Config{W: 10, Eps: 0.1, Sites: 0})
	var ce *distwindow.ConfigError
	if !errors.As(err, &ce) || ce.Field != "Sites" {
		t.Fatalf("got %v, want *ConfigError on Sites", err)
	}
	if _, err := distwindow.NewAggregate(distwindow.Config{W: 10, Eps: 0.1, Sites: 2}); err != nil {
		t.Fatalf("valid aggregate config rejected: %v", err)
	}
}

func TestWithParallelRejections(t *testing.T) {
	base := distwindow.Config{Protocol: distwindow.PWOR, D: 4, W: 100, Eps: 0.1, Sites: 2}
	if _, err := distwindow.New(base, distwindow.WithParallel(2)); !errors.Is(err, distwindow.ErrParallelUnsupported) {
		t.Fatalf("sampling protocol: got %v, want ErrParallelUnsupported", err)
	}
	da := base
	da.Protocol = distwindow.DA1
	if _, err := distwindow.New(da, distwindow.WithParallel(2), distwindow.WithTracing(distwindow.TraceConfig{SampleEvery: 1})); !errors.Is(err, distwindow.ErrParallelUnsupported) {
		t.Fatalf("tracing: got %v, want ErrParallelUnsupported", err)
	}
	if _, err := distwindow.New(da, distwindow.WithParallel(2), distwindow.WithAudit(distwindow.AuditConfig{})); !errors.Is(err, distwindow.ErrParallelUnsupported) {
		t.Fatalf("audit: got %v, want ErrParallelUnsupported", err)
	}
	tr, err := distwindow.New(da, distwindow.WithParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if !tr.Parallel() {
		t.Fatal("Parallel() = false on a WithParallel tracker")
	}
}

func TestOptionWiring(t *testing.T) {
	cfg := distwindow.Config{Protocol: distwindow.DA1, D: 2, W: 50, Eps: 0.2, Sites: 2}
	var cs distwindow.CountingSink
	tr, err := distwindow.New(cfg,
		distwindow.WithSink(&cs),
		distwindow.WithTracing(distwindow.TraceConfig{SampleEvery: 1}),
		distwindow.WithAudit(distwindow.AuditConfig{EveryRows: 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.TracingEnabled() || !tr.AuditEnabled() {
		t.Fatalf("tracing=%v audit=%v, want both enabled", tr.TracingEnabled(), tr.AuditEnabled())
	}
	for i := int64(1); i <= 32; i++ {
		observe(t, tr, int(i)%2, distwindow.Row{T: i, V: []float64{1, float64(i)}})
	}
	if cs.Count(distwindow.EvMsgSent) == 0 {
		t.Fatal("WithSink sink saw no message events")
	}
	if tr.TraceSpans() == 0 {
		t.Fatal("WithTracing recorded no spans")
	}
	if m, ok := tr.Audit(); !ok || m.Ticks == 0 {
		t.Fatalf("WithAudit measured nothing (ok=%v)", ok)
	}
	// Sequential trackers accept Drain/Close.
	tr.Drain()
	tr.Close()
	if tr.Parallel() {
		t.Fatal("sequential tracker reports Parallel() = true")
	}
}
