// The append-encoded /v1/recommend body against encoding/json, and the
// encode-before-header failure handling every endpoint shares.

package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"longtailrec/internal/core"
)

// fuzzItems decodes 16-byte records: score bits, item, then a word whose
// low bit is long_tail and whose rest is popularity.
func fuzzItems(data []byte) []RecommendedItem {
	items := make([]RecommendedItem, 0, len(data)/16)
	for ; len(data) >= 16; data = data[16:] {
		word := int32(binary.LittleEndian.Uint32(data[12:]))
		items = append(items, RecommendedItem{
			Score:      math.Float64frombits(binary.LittleEndian.Uint64(data)),
			Item:       int(int32(binary.LittleEndian.Uint32(data[8:]))),
			Popularity: int(word >> 1),
			LongTail:   word&1 == 1,
		})
	}
	return items
}

// FuzzRecommendEncoding: the appended bytes are json.Marshal's plus the
// Encoder's newline, for any response; a response json refuses (a NaN or
// ±Inf score) is refused with the same text.
func FuzzRecommendEncoding(f *testing.F) {
	record := func(score float64, item, word int32) []byte {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(score))
		b = binary.LittleEndian.AppendUint32(b, uint32(item))
		return binary.LittleEndian.AppendUint32(b, uint32(word))
	}
	var floats []byte
	for i, s := range []float64{
		0, math.Copysign(0, -1), 1, -1, 3, 1e6, 123456789, 0.1, 1.0 / 3, 2.5e-3,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 9.999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1.25e-100,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, -1e21, 1e22, 1.5e300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324, 4.2439915824246103e-314,
	} {
		floats = append(floats, record(s, int32(i), int32(i*7))...)
	}
	f.Add("AC2", int64(17), uint64(3), uint8(2), floats)
	f.Add("AT", int64(0), uint64(0), uint8(0), []byte{})               // empty, non-nil items
	f.Add("HT", int64(-4), uint64(math.MaxUint64), uint8(4), []byte{}) // nil items
	f.Add("MostPopular", int64(math.MaxInt64), uint64(1), uint8(1), record(41, math.MaxInt32, -1))
	f.Add(`a<b>&"c\d`, int64(1), uint64(1), uint8(3), record(0.25, math.MinInt32, math.MinInt32))
	f.Add("héllo \u2028 世界 \x7f", int64(1), uint64(1), uint8(0), record(7, 1, 3))
	f.Add("bad\xffutf8\x00\x1f\t\n", int64(1), uint64(1), uint8(0), record(7, 1, 2))
	f.Add("", int64(1), uint64(1), uint8(0), record(math.NaN(), 1, 2))
	f.Add("AT", int64(1), uint64(1), uint8(0), append(record(1, 1, 2), record(math.Inf(-1), 2, 2)...))
	f.Fuzz(func(t *testing.T, algo string, user int64, epoch uint64, flags uint8, data []byte) {
		resp := RecommendResponse{
			User:      int(user),
			Algorithm: algo,
			Fallback:  flags&1 != 0,
			Epoch:     epoch,
			CacheHit:  flags&2 != 0,
			Items:     fuzzItems(data),
		}
		if flags&4 != 0 && len(resp.Items) == 0 {
			resp.Items = nil
		}
		prefix := []byte("kept")
		got, err := appendRecommendResponse(prefix, &resp)
		want, wantErr := json.Marshal(resp)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("encoding/json refuses %+v with %q, the append encoder returned %v", resp, wantErr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("append encoder refuses %+v (%v), encoding/json does not", resp, err)
		}
		if want = append(append([]byte("kept"), want...), '\n'); !bytes.Equal(got, want) {
			t.Fatalf("appended  %q\nencoding/json %q", got, want)
		}
	})
}

// TestRecommendBodyMatchesEncodingJSON pins what a client of /v1/recommend
// sees: the headers, the literal the serving benchmark's in-phase check
// looks for, and a body that is byte for byte what encoding/json makes of
// the value it decodes to — on a miss, on the hit that follows, on a
// fallback and with a large k.
func TestRecommendBodyMatchesEncodingJSON(t *testing.T) {
	_, ts := cachedTestServer(t)
	for _, query := range []string{
		"user=0&k=3", "user=0&k=3", // miss, then hit
		"user=7&k=3",             // cold user: fallback
		"user=1&k=100&algo=HT",   // every unrated item
		"user=2&k=2&candidates=", // empty slate: "items":[]
	} {
		resp, err := http.Get(ts.URL + "/v1/recommend?" + query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (body %s)", query, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", query, ct)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", query, cl, len(body))
		}
		var decoded RecommendResponse
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatalf("%s: %v (body %s)", query, err, body)
		}
		want, err := json.Marshal(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(body, want) {
			t.Fatalf("%s:\n body          %q\n encoding/json %q", query, body, want)
		}
		if !strings.HasSuffix(query, "candidates=") && !bytes.Contains(body, []byte(`"items":[{"item":`)) {
			t.Fatalf("%s: body lacks the literal the benchmark's plausible() looks for: %s", query, body)
		}
	}
}

// nanSource answers every query with a score no JSON number can carry.
type nanSource struct{ Source }

func (nanSource) Recommend(_ context.Context, algo string, req core.Request) (core.Response, error) {
	return core.Response{Algo: algo, Items: []core.Scored{{Item: 1, Score: 0.5}, {Item: 2, Score: math.NaN()}}}, nil
}

func (nanSource) RecommendRequests(_ context.Context, _ string, reqs []core.Request, _ int) ([]core.Response, error) {
	out := make([]core.Response, len(reqs))
	for i := range out {
		out[i].Items = []core.Scored{{Item: 1, Score: math.Inf(1)}}
	}
	return out, nil
}

// TestUnencodableResponseIs500: the body is built before the status line
// is written, so a value that cannot be encoded is an error response, not
// a 200 with nothing after it — through the append encoder and through
// writeJSON alike.
func TestUnencodableResponseIs500(t *testing.T) {
	srv, err := New(nanSource{testSystem(t)}, Options{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/recommend?user=0", "/v1/recommend/batch?users=0,1"} {
		var e map[string]string
		getJSON(t, ts.URL+path, http.StatusInternalServerError, &e)
		if !strings.Contains(e["error"], "unsupported value") {
			t.Fatalf("%s: error %q does not name the unsupported value", path, e["error"])
		}
	}
	var m MetricsResponse
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &m)
	if got := m.Endpoints["GET /v1/recommend"]; got.Requests != 1 || got.Errors != 1 {
		t.Fatalf("the failed encode was not counted as an error: %+v", got)
	}
}
