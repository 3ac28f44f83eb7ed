package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// supernodeGolden pins shardedScenario run with every node in one
// environment (Shards=0): node-1 frontends reach node-0 backends and the
// mapper through the same kernel, so cross-node selection, remote conns
// and feedback relays are all on the pinned path. The hashes cover the
// recorder's JSONL export and the request log.
var supernodeGolden = []struct {
	mode               Mode
	launched, finished int
	requests           int
	endUS              int64 // EndTime in virtual microseconds
	traceSHA, logSHA   string
}{
	{ModeStrings, 16, 16, 16, 7912974,
		"ca27b45cff77f0d3742a2bd4a756653c6610d57d69934a02a0e02b06eae4dcc9",
		"0f408556b64a738b6c98b8aea4f24de68d6c415f1ed3485db5d4c1f9f3c911af"},
	{ModeRain, 16, 16, 16, 7884724,
		"e03494b5a72cb80515b8bd9ac658148fd6dbde8726d3226465abcfd02e1565fa",
		"7b7eed14c3243755e69fa129714626731c239e4c06e691ad40aa6a82f9f9150c"},
	{ModeCUDA, 16, 16, 16, 18819330,
		"6593b4231a4d55ad5681274863984c83a8149d2b0056bc12eee2ac1908afc8a1",
		"20a6376406998a551c58b8a94d17807a5d9e277bddbc29c8b539ebe87488aac9"},
}

func TestSupernodeGolden(t *testing.T) {
	for _, g := range supernodeGolden {
		r, jsonl, c := runShardedOnce(t, g.mode, 0)
		if c.Sharded() {
			t.Fatalf("%v: Shards=0 run reports sharded", g.mode)
		}
		var log bytes.Buffer
		if err := r.WriteRequestLog(&log); err != nil {
			t.Fatal(err)
		}
		traceSum := sha256.Sum256(jsonl)
		logSum := sha256.Sum256(log.Bytes())
		got := []any{r.Launched, r.Finished, len(r.Requests), int64(r.EndTime),
			hex.EncodeToString(traceSum[:]), hex.EncodeToString(logSum[:])}
		want := []any{g.launched, g.finished, g.requests, g.endUS, g.traceSHA, g.logSHA}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%v: got (launched, finished, requests, end, trace sha, log sha) = %v, want %v",
					g.mode, got, want)
				break
			}
		}
	}
}
