package results

import (
	"bytes"
	"strings"
)

// indentRun is a newline followed by the indentation of nesting depth 32;
// the line break before a value at depth d is its first 1+2d bytes.
const indentRun = "\n" + "                                                                "

// indent lays out compact JSON with a two-space indent, keeping empty
// objects and arrays as {} and [], and appends a trailing newline. src
// must be json.Marshal output: valid, with no whitespace outside
// strings. Unlike json.Indent it does not re-validate src byte by byte;
// it copies each string and scalar whole and acts only on the
// punctuation between them.
func indent(src []byte) []byte {
	// The committed envelopes indent to 1.2-1.8 times their compact
	// size, so twice the size is never regrown for them.
	dst := make([]byte, 0, 2*len(src)+1)
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			end := stringEnd(src, i+1)
			dst = append(dst, src[i:end]...)
			i = end - 1
		case '{', '[':
			if next := src[i+1]; next == '}' || next == ']' {
				dst = append(dst, c, next)
				i++
				continue
			}
			depth++
			dst = newline(append(dst, c), depth)
		case '}', ']':
			depth--
			dst = append(newline(dst, depth), c)
		case ',':
			dst = newline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default: // a number, true, false or null runs to the next punctuation
			end := i + 1
			for end < len(src) && src[end] != ',' && src[end] != '}' && src[end] != ']' {
				end++
			}
			dst = append(dst, src[i:end]...)
			i = end - 1
		}
	}
	return append(dst, '\n')
}

// stringEnd returns the index just past the quote that closes the string
// whose contents start at src[i].
func stringEnd(src []byte, i int) int {
	for {
		q := i + bytes.IndexByte(src[i:], '"')
		// The quote is escaped when an odd run of backslashes precedes it.
		b := q
		for src[b-1] == '\\' {
			b--
		}
		if (q-b)%2 == 0 {
			return q + 1
		}
		i = q + 1
	}
}

// newline appends a line break and the indentation of depth.
func newline(dst []byte, depth int) []byte {
	if n := 1 + 2*depth; n <= len(indentRun) {
		return append(dst, indentRun[:n]...)
	}
	return append(append(dst, '\n'), strings.Repeat("  ", depth)...)
}
