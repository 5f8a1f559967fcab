package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// reference.json holds each workload's output digest at the default seed,
// keyed by workload/size/seed; see refKey.
//
//go:embed reference.json
var referenceJSON []byte

func loadRefs() (map[string]string, error) {
	refs := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}
