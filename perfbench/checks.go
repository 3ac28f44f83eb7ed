package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// sameOutcome fails when two repetitions of one seed simulated different
// things: every simulated value and exact count must repeat.
func sameOutcome(a, b outcome) error {
	if reflect.DeepEqual(a, b) {
		return nil
	}
	ja, err := json.Marshal(a)
	if err != nil {
		return fmt.Errorf("compare outcomes: %w", err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return fmt.Errorf("compare outcomes: %w", err)
	}
	return sameRecord(ja, jb)
}

// sameRecord compares two JSON records field by field and names every
// field that differs.
func sameRecord(want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	var w, g map[string]any
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("compare records: %w", err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("compare records: %w", err)
	}
	keys := map[string]bool{}
	for k := range w {
		keys[k] = true
	}
	for k := range g {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		if !reflect.DeepEqual(w[k], g[k]) {
			diffs = append(diffs, fmt.Sprintf("%s: %v, then %v", k, w[k], g[k]))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	return fmt.Errorf("runs of one seed disagree: %s", strings.Join(diffs, "; "))
}
