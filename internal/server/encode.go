// The /v1/recommend body, appended field by field. It is the one response
// hot enough (every cache hit renders one) for encoding/json's reflection
// walk to be a visible share of the request; every other endpoint goes
// through writeJSON. The bytes are those json.NewEncoder(w).Encode(resp)
// writes — FuzzRecommendEncoding holds the two equal.

package server

import (
	"encoding/json"
	"math"
	"strconv"
)

// appendRecommendResponse appends resp as encoding/json would encode it,
// trailing newline included. The only value it can refuse is the one
// encoding/json refuses: a score that is NaN or ±Inf.
func appendRecommendResponse(b []byte, resp *RecommendResponse) ([]byte, error) {
	b = append(b, `{"user":`...)
	b = strconv.AppendInt(b, int64(resp.User), 10)
	b = append(b, `,"algorithm":`...)
	b = appendJSONString(b, resp.Algorithm)
	if resp.Fallback { // omitempty
		b = append(b, `,"fallback":true`...)
	}
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, resp.Epoch, 10)
	b = append(b, `,"cache_hit":`...)
	b = strconv.AppendBool(b, resp.CacheHit)
	b = append(b, `,"items":`...)
	if resp.Items == nil {
		return append(b, "null}\n"...), nil
	}
	b = append(b, '[')
	for i, it := range resp.Items {
		if math.IsNaN(it.Score) || math.IsInf(it.Score, 0) {
			return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(it.Score, 'g', -1, 64)}
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"item":`...)
		b = strconv.AppendInt(b, int64(it.Item), 10)
		b = append(b, `,"score":`...)
		b = appendJSONFloat(b, it.Score)
		b = append(b, `,"popularity":`...)
		b = strconv.AppendInt(b, int64(it.Popularity), 10)
		b = append(b, `,"long_tail":`...)
		b = strconv.AppendBool(b, it.LongTail)
		b = append(b, '}')
	}
	return append(b, "]}\n"...), nil
}

// appendJSONFloat appends a finite float64 in encoding/json's format: the
// shortest digits that round-trip, as ES6 prints them — exponent form
// below 1e-6 and from 1e21 up, with a two-digit negative exponent's
// leading zero dropped (e-09 becomes e-9).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s as a JSON string. Algorithm names are plain
// ASCII words; anything that would need escaping (quotes, backslashes,
// control bytes, the HTML characters encoding/json escapes by default,
// non-ASCII and invalid UTF-8) is left to encoding/json itself, so the
// escaping rules live in one place.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
