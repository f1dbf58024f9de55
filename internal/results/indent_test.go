package results

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"sfence/internal/exp"
	"sfence/internal/kernels"
	"sfence/internal/machine"
)

// encoderMarshal is the reference Marshal is held to: encoding/json's own
// indenting encoder, which Marshal used before its one-pass indenter.
func encoderMarshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// assertMatchesEncoder fails the test unless got is exactly the
// reference encoding of v, naming the first differing byte.
func assertMatchesEncoder(t *testing.T, name string, got []byte, v any) {
	t.Helper()
	want, err := encoderMarshal(v)
	if err != nil {
		t.Fatalf("%s: reference encoder: %v", name, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Errorf("%s: Marshal differs from the reference encoder at byte %d of %d (want %d):\n got %q\nwant %q",
		name, i, len(got), len(want), got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
}

// TestMarshalMatchesEncoder runs every registered experiment at quick
// scale (stats included) and requires each envelope, a run-cache record
// and a serve error reply to be byte-identical to the reference encoder.
func TestMarshalMatchesEncoder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	ctx := context.Background()
	s := exp.NewSession(NewMemCache().Runner(exp.DirectRun), nil, 0)
	for _, spec := range Experiments() {
		data, err := spec.Run(ctx, s, exp.Quick)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		got, err := spec.JSON(data, exp.Quick)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		// Rebuild the envelope spec.JSON marshals: an interface payload
		// encodes exactly as the concrete one.
		title := kindTitles[spec.Kind]
		if spec.Kind == KindStats {
			title = statsTitle
		}
		env := any(NewEnvelope(spec.Kind, title, exp.Quick, data))
		if set, ok := data.(AblationSet); ok {
			env = NewEnvelope(spec.Kind, title, exp.Quick, []AblationSet{set})
		}
		assertMatchesEncoder(t, spec.ID, got, env)
	}

	opts := kernels.Options{Mode: kernels.Scoped, Threads: 2, Ops: 5, Workload: 1}
	cfg := machine.DefaultConfig()
	res, err := exp.DirectRun(ctx, "dekker", opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := runRecord{SchemaVersion, "dekker", opts, cfg, res}
	got, err := Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesEncoder(t, "runRecord", got, rec)

	reply := map[string]string{"error": `unknown job "<a&b>"` + "\u2028"}
	got, err = Marshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesEncoder(t, "error reply", got, reply)
}

// FuzzMarshal requires Marshal to match the reference encoder on any
// JSON document decoded into interface values.
func FuzzMarshal(f *testing.F) {
	for _, seed := range []string{
		`{"a":"x\"y","b":"\\","c":"\\\"","d":"\\\\\"\\","e":"\\\\"}`,
		`["<script>","a&b",">"]`,
		"{\"\u2028\":\"\u2029 \\u2028\"}",
		`{}`,
		`[]`,
		`{"a":{},"b":[],"c":[{},[],{"d":[[[]]]}]}`,
		`[1e300,-2.5E-7,0.1,1e+2,-0,123456789012345678901234567890]`,
		`"bare"`,
		`-12.5e3`,
		`null`,
		`[true,false,null,""]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) != nil {
			return
		}
		got, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesEncoder(t, "fuzz", got, v)
	})
}
