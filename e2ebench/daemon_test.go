package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestMixSequencesAreSeededAndRepeatOwnRequests(t *testing.T) {
	a, b := mixSequences(42, 0, 2), mixSequences(42, 0, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, mixSequences(7, 0, 2)) {
		t.Fatal("another seed gave the same request sequences")
	}
	var firsts [][]byte
	for part := 0; part < 2; part++ {
		seqs := mixSequences(42, part, 2)
		if len(seqs) != daemonClients {
			t.Fatalf("%d client sequences, want %d", len(seqs), daemonClients)
		}
		for _, seq := range seqs {
			repeats := 0
			for i, rq := range seq {
				if rq.repeatOf < 0 {
					firsts = append(firsts, rq.body)
					continue
				}
				repeats++
				orig := seq[rq.repeatOf]
				if rq.repeatOf >= i || orig.repeatOf >= 0 || !bytes.Equal(orig.body, rq.body) {
					t.Fatalf("request %d repeats %d, which is not an earlier first occurrence of the same body", i, rq.repeatOf)
				}
			}
			if 2*repeats != len(seq) {
				t.Fatalf("client sequence of %d requests has %d repeats, want half", len(seq), repeats)
			}
		}
	}
	// The cycle's parts together send every first occurrence exactly once.
	want := len(daemonOps)*len(daemonNetworks)*len(daemonKernels) + daemonSweeps
	if len(firsts) != want {
		t.Fatalf("%d first occurrences over the cycle, want %d", len(firsts), want)
	}
	for i := range firsts {
		for j := i + 1; j < len(firsts); j++ {
			if bytes.Equal(firsts[i], firsts[j]) {
				t.Fatalf("first occurrences %d and %d are the same request", i, j)
			}
		}
	}
}

func TestQuietMissesAreFreshCopiesOfTheFirstOccurrences(t *testing.T) {
	mix, fresh := firstOccurrences(42, false), firstOccurrences(42, true)
	if len(mix) != len(fresh) {
		t.Fatalf("%d quiet misses for %d first occurrences", len(fresh), len(mix))
	}
	for i := range fresh {
		if fresh[i].op != mix[i].op || fresh[i].path != mix[i].path {
			t.Fatalf("quiet miss %d is %s %s, first occurrence is %s %s", i, fresh[i].path, fresh[i].op, mix[i].path, mix[i].op)
		}
		for j := range mix {
			if bytes.Equal(fresh[i].body, mix[j].body) {
				t.Fatalf("quiet miss %d repeats first occurrence %d", i, j)
			}
		}
	}
}
