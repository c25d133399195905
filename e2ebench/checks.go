package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// reference holds the model outputs recorded for one study or trace seed.
// No speed-up may change them. Zero fields are not recorded.
type reference struct {
	Makespan uint64 `json:"exec_makespan,omitempty"`
	Messages uint64 `json:"exec_messages,omitempty"`
	Events   uint64 `json:"events,omitempty"`
}

// references maps "workload/kernel/seed" to the recorded outputs.
type references map[string]reference

//go:embed reference.json
var referenceJSON []byte

func loadReferences() (references, error) {
	refs := references{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

func refKey(workload, kernel string, seed uint64) string {
	return fmt.Sprintf("%s/%s/%d", workload, kernel, seed)
}

// mismatch returns a failure message when a value is recorded for the seed
// (want is non-zero) and the run produced another; "" otherwise.
func mismatch(what string, got, want uint64) string {
	if want != 0 && got != want {
		return fmt.Sprintf("%s %d, reference %d", what, got, want)
	}
	return ""
}

// recordReferences merges the outputs of one run into the reference file
// at path (e2ebench/reference.json when recording a new seed).
func recordReferences(path string, add references) error {
	refs := references{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range add {
		refs[k] = v
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// counterDiff lists the counters whose values differ between two runs of
// the same seed, sorted by name. A counter present in only one run counts as
// different.
func counterDiff(a, b map[string]int64) []string {
	var out []string
	for k, va := range a {
		if vb, ok := b[k]; !ok || va != vb {
			out = append(out, fmt.Sprintf("%s: %d vs %d", k, va, b[k]))
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s: missing vs %d", k, vb))
		}
	}
	sort.Strings(out)
	return out
}

// checkCounters compares a run's deterministic counters with those an
// earlier run of the same code (source digest), workload and seed stored
// under dir, storing them when none are. It returns the mismatches, each a
// sign of nondeterminism.
func checkCounters(dir, source, workload string, seed uint64, got map[string]int64) ([]string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%.16s.json", workload, seed, source))
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return nil, err
		}
		return nil, os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return nil, err
	}
	var prev map[string]int64
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return counterDiff(prev, got), nil
}
