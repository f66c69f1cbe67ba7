package delta

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecoderBatch: an arbitrary POST /v1/deltas body never panics the
// streaming decoder, and every batch it accepts survives an
// EncodeJSONL round trip unchanged.
func FuzzDecoderBatch(f *testing.F) {
	f.Add([]byte(`{"kind":"session_down","peer_ip":"10.9.9.9","peer_as":64999}` + "\n"))
	f.Add([]byte(`{"kind":"xconnect_add","near_ip":"10.0.0.1","far_ip":"10.0.0.2","router":3}` + "\n\n" +
		`{"kind":"as_facility_add","as":64500,"facility":7}`))
	f.Add([]byte(`{"kind":"member_add","as":1,"ixp":2,"port":"0.0.0.0"}` + "\r\n"))
	f.Add([]byte(`{"kind":"frobnicate"}` + "\n"))
	f.Add([]byte(`{"kind":"session_up","peer_ip":"300.1.1.1"}` + "\n"))
	f.Add([]byte(`{"kind":"as_facility_remove","as":4294967297}`))
	f.Add([]byte(strings.Repeat("x", 1<<20+1)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		log, err := NewDecoder(bytes.NewReader(body)).Batch(0)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeJSONL(&buf, log); err != nil {
			t.Fatalf("encoding an accepted batch: %v", err)
		}
		back, err := NewDecoder(&buf).Batch(0)
		if err != nil {
			t.Fatalf("re-decoding an accepted batch: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, log) {
			t.Fatalf("round trip changed the batch:\n got %v\nwant %v", back, log)
		}
	})
}
