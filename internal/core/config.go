// Package core implements the paper's distributed sliding-window tracking
// protocols: the sampling family (PWOR and ESWOR with exact and
// lazy-broadcast threshold maintenance, with the -ALL estimator variants
// and with-replacement extensions) and the deterministic family (SUM
// tracking, DA1 and DA2). Every protocol implements protocol.Tracker and
// reports its communication to a protocol.Network using the paper's
// word-count accounting.
package core

import (
	"fmt"

	"distwindow/internal/sampling"
)

// Config carries the parameters shared by all protocols.
type Config struct {
	// D is the row dimension.
	D int
	// W is the window length in ticks.
	W int64
	// Eps is the target covariance error ε.
	Eps float64
	// Sites is the number of distributed sites m.
	Sites int
	// Ell overrides the sample-set size ℓ for sampling protocols;
	// 0 derives it from Eps via sampling.SampleSize.
	Ell int
	// Seed drives the protocol's randomness (sampling priorities).
	Seed int64
}

// FieldError reports which Config field failed validation and why; the
// facade wraps it so callers can attribute the failure without parsing the
// message.
type FieldError struct {
	Field string
	Msg   string
}

func (e *FieldError) Error() string { return "core: " + e.Field + " " + e.Msg }

// Validate checks the shared parameter constraints. It is the single
// source of truth for D/W/Eps/Sites/Ell validation — the facade and every
// protocol constructor defer to it. The returned error is a *FieldError.
func (c Config) Validate() error {
	if c.D < 1 {
		return &FieldError{Field: "D", Msg: fmt.Sprintf("= %d, want ≥ 1", c.D)}
	}
	if c.W <= 0 {
		return &FieldError{Field: "W", Msg: fmt.Sprintf("= %d, want > 0", c.W)}
	}
	if c.Eps <= 0 || c.Eps >= 1 {
		return &FieldError{Field: "Eps", Msg: fmt.Sprintf("= %v, want in (0,1)", c.Eps)}
	}
	if c.Sites < 1 {
		return &FieldError{Field: "Sites", Msg: fmt.Sprintf("= %d, want ≥ 1", c.Sites)}
	}
	if c.Ell < 0 {
		return &FieldError{Field: "Ell", Msg: fmt.Sprintf("= %d, want ≥ 0", c.Ell)}
	}
	return nil
}

// validate is the old unexported spelling, kept so the protocol
// constructors read unchanged.
func (c Config) validate() error { return c.Validate() }

// ell resolves the sample-set size.
func (c Config) ell() int {
	if c.Ell > 0 {
		return c.Ell
	}
	return sampling.SampleSize(c.Eps)
}
