package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/dse"
)

// committedDigests holds the full-scale result digests per seed and workload
// (testdata/digests.json, regenerated with -update).
//
//go:embed testdata/digests.json
var committedDigests []byte

// digestFile maps seed -> workload -> digest.
type digestFile map[string]map[string]string

func loadDigests() (digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(committedDigests, &d); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return d, nil
}

// expected returns the committed digest for a full-scale run, if any.
func (d digestFile) expected(seed uint64, workload string) (string, bool) {
	v, ok := d[strconv.FormatUint(seed, 10)][workload]
	return v, ok
}

// digestResults hashes results of one workload run. Wall-clock fields are
// cleared by dse.Normalize; Events is cleared too, because it counts the
// simulator's own cost, not modelled behaviour, and a faster event core may
// change it.
func digestResults(results []core.Result, errs []string) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i, res := range results {
		res = dse.Normalize(res)
		res.Events = 0
		if err := enc.Encode(struct {
			Result core.Result `json:"result"`
			Err    string      `json:"err,omitempty"`
		}{res, errs[i]}); err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeDigests rewrites the committed digest file.
func writeDigests(path string, d digestFile) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
