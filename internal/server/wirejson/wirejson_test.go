package wirejson

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzLexer holds the lexer and the encoders to encoding/json: a
// document is accepted exactly when json.Valid accepts it, a string
// document unescapes to what json.Unmarshal yields, and AppendString
// and AppendFloat write json.Marshal's bytes.
func FuzzLexer(f *testing.F) {
	for _, seed := range []string{
		`{"a":[1,-2.5e+3,true,false,null,{"b":"c"}]}`,
		`"é😀\ud800x\/\b\f\n\r\t<&>"`,
		`[01]`, `{"a" 1}`, `[1,]`, `"` + "\x01" + `"`, "\"\xff\xfe\"", `1.`, `-`, `1e`, ` [ ] `, `{} {}`,
	} {
		f.Add([]byte(seed), 0.1)
	}
	f.Fuzz(func(t *testing.T, doc []byte, x float64) {
		var l Lexer
		l.Reset(doc)
		err := l.Skip()
		if err == nil {
			err = l.End()
		}
		if valid := json.Valid(doc); valid != (err == nil) {
			t.Fatalf("%q: json.Valid %v, lexer error %v", doc, valid, err)
		}
		l.Reset(doc)
		if l.Peek() == '"' {
			got, err := l.String()
			var want string
			if json.Unmarshal(doc, &want) == nil && err == nil && l.End() == nil && string(got) != want {
				t.Fatalf("%q: unescaped %q, encoding/json %q", doc, got, want)
			}
		}
		s := string(doc)
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal %s", s, got, want)
		}
		got, ok := AppendFloat(nil, x)
		want, merr := json.Marshal(x)
		if ok != (merr == nil) || ok && !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s %v, json.Marshal %s %v", x, got, ok, want, merr)
		}
	})
}

// TestAppendValue checks the directly written types against Marshal.
func TestAppendValue(t *testing.T) {
	for _, v := range []any{
		int64(-7), 7, uint64(math.MaxUint64), "x<y", true, nil, 1e-7, 1.5,
		json.Number("12.50"), json.Number(""), int32(3), []int{1}, math.NaN(),
	} {
		got, err := AppendValue(nil, v)
		want, merr := json.Marshal(v)
		if (err == nil) != (merr == nil) || err == nil && !bytes.Equal(got, want) {
			t.Errorf("AppendValue(%#v) = %s %v, json.Marshal %s %v", v, got, err, want, merr)
		}
	}
	if _, err := AppendValue(nil, json.Number("1x")); err == nil {
		t.Error("an invalid json.Number must fail")
	}
}
