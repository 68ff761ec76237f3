// Package modelio persists trained selectivity models: a database system
// trains in the optimizer's maintenance window and ships the model to
// every node that plans queries, so models need a stable interchange
// format. The format is a JSON envelope {version, type, payload}; all
// model types of this repository round-trip losslessly (float64 values are
// encoded in full precision).
package modelio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/gmm"
	"repro/internal/hist"
	"repro/internal/isomer"
	"repro/internal/ptshist"
	"repro/internal/quicksel"
)

// Version is the current envelope version.
const Version = 1

// Typed load failures. A serving layer maps these to client errors (the
// uploaded bytes are bad) as opposed to transport or I/O faults:
//
//	ErrMalformed      — the bytes are not a JSON envelope
//	ErrUnknownVersion — envelope version this build does not speak
//	ErrUnknownType    — model type tag this build does not know
//	ErrInvalidModel   — well-formed envelope, structurally invalid model
//
// Match with errors.Is.
var (
	ErrMalformed      = errors.New("modelio: malformed envelope")
	ErrUnknownVersion = errors.New("modelio: unknown envelope version")
	ErrUnknownType    = errors.New("modelio: unknown model type")
	ErrInvalidModel   = errors.New("modelio: invalid model")
)

type envelope struct {
	Version int             `json:"version"`
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload"`
}

// TypeName returns the envelope tag of a model type ("quadhist",
// "ptshist", "quicksel", "isomer", "gaussmix"), or false for a type this
// package cannot persist.
func TypeName(m core.Model) (string, bool) {
	switch m.(type) {
	case *hist.Model:
		return "quadhist", true
	case *ptshist.Model:
		return "ptshist", true
	case *quicksel.Model:
		return "quicksel", true
	case *isomer.Model:
		return "isomer", true
	case *gmm.Model:
		return "gaussmix", true
	}
	return "", false
}

// Save writes the model to w. Only the concrete model types of this
// repository are supported, and a model that Load would reject is not
// written: Save returns ErrInvalidModel instead.
func Save(w io.Writer, m core.Model) error {
	name, ok := TypeName(m)
	if !ok {
		return fmt.Errorf("modelio: unsupported model type %T", m)
	}
	if err := validate(m); err != nil {
		return err
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("modelio: encode payload: %w", err)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(envelope{Version: Version, Type: name, Payload: payload})
}

// Load reads a model written by Save.
func Load(r io.Reader) (core.Model, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrMalformed, err)
	}
	if env.Version != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrUnknownVersion, env.Version, Version)
	}
	var m core.Model
	switch env.Type {
	case "quadhist":
		m = &hist.Model{}
	case "ptshist":
		m = &ptshist.Model{}
	case "quicksel":
		m = &quicksel.Model{}
	case "isomer":
		m = &isomer.Model{}
	case "gaussmix":
		m = &gmm.Model{}
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, env.Type)
	}
	if err := json.Unmarshal(env.Payload, m); err != nil {
		return nil, fmt.Errorf("%w: decode %s payload: %v", ErrMalformed, env.Type, err)
	}
	if err := validate(m); err != nil {
		return nil, err
	}
	return m, nil
}

// validate performs structural sanity checks so a corrupted file fails at
// load time rather than at estimation time: weights must be finite,
// nonnegative and sum to about 1, and every point, bucket corner or
// component mean of a model must have one common dimension (the estimate
// kernels scan coordinates with a fixed stride).
func validate(m core.Model) error {
	checkWeights := func(n int, w []float64) error {
		if len(w) != n {
			return fmt.Errorf("%w: %d buckets but %d weights", ErrInvalidModel, n, len(w))
		}
		sum := 0.0
		for _, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: non-finite weight %v", ErrInvalidModel, v)
			}
			if v < -1e-9 {
				return fmt.Errorf("%w: negative weight %v", ErrInvalidModel, v)
			}
			sum += v
		}
		if n > 0 && (sum < 0.99 || sum > 1.01) {
			return fmt.Errorf("%w: weights sum to %v", ErrInvalidModel, sum)
		}
		return nil
	}
	checkBoxes := func(bs []geom.Box, w []float64) error {
		for _, b := range bs {
			if len(b.Lo) != len(bs[0].Lo) || len(b.Hi) != len(bs[0].Lo) {
				return fmt.Errorf("%w: bucket corners of dimension %d and %d, want %d",
					ErrInvalidModel, len(b.Lo), len(b.Hi), len(bs[0].Lo))
			}
		}
		return checkWeights(len(bs), w)
	}
	checkPoints := func(ps []geom.Point) error {
		for _, p := range ps {
			if len(p) != len(ps[0]) {
				return fmt.Errorf("%w: points of dimension %d and %d", ErrInvalidModel, len(ps[0]), len(p))
			}
		}
		return nil
	}
	switch t := m.(type) {
	case *hist.Model:
		return checkBoxes(t.Buckets, t.Weights)
	case *ptshist.Model:
		if err := checkPoints(t.Points); err != nil {
			return err
		}
		return checkWeights(len(t.Points), t.Weights)
	case *quicksel.Model:
		return checkBoxes(t.Buckets, t.Weights)
	case *isomer.Model:
		return checkBoxes(t.Buckets, t.Weights)
	case *gmm.Model:
		if err := checkWeights(len(t.Components), t.Weights); err != nil {
			return err
		}
		for _, c := range t.Components {
			if !(c.Sigma > 0) || math.IsInf(c.Sigma, 1) {
				return fmt.Errorf("%w: component sigma %v", ErrInvalidModel, c.Sigma)
			}
			if len(c.Mean) != len(t.Components[0].Mean) {
				return fmt.Errorf("%w: component means of dimension %d and %d",
					ErrInvalidModel, len(t.Components[0].Mean), len(c.Mean))
			}
		}
		return nil
	}
	return nil
}
