package perfdmf

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorrupt is the sentinel wrapped by trial reads that hit a damaged
// file: a checksum mismatch, a truncated envelope, undecodable JSON or an
// invalid trial. Match it with errors.Is. A corrupt trial is quarantined
// (renamed to <file>.corrupt) by the repository, so one damaged file
// degrades a single lookup instead of poisoning listings or analyses.
var ErrCorrupt = errors.New("trial data corrupt")

// A trial has one encoded form — on disk, in a hint record and on the wire
// (dmfwire.TrialContentType): the binary columnar payload (columnar.go)
// inside a checksummed envelope, so torn writes, cut responses and bit rot
// are detected instead of silently parsed:
//
//	%PDMF1\n
//	<payload: %PDMFCOL4 columnar trial, byte-exact>
//	\n%PDMF1 crc32c=XXXXXXXX len=NNN\n
//
// The trailer repeats the magic, then carries the CRC32-C of the payload
// (8 lowercase hex digits) and the payload length in decimal. Both the
// header and the trailer must be intact and agree with the payload for a
// read to succeed — a file cut off anywhere, or altered anywhere, fails
// the check. A trailer has one spelling, the one appendEnvelopeTrailer
// writes (lower-case hex, no sign or leading zero on the length, nothing
// after the newline), so equal payloads have equal envelopes and replicas
// can be compared by their trailers. EncodeTrial is the only writer. One
// older form stays readable and is rewritten on its next save or by fsck: a
// %PDMFCOL3 payload (the same value blocks behind a JSON header) inside the
// envelope. What came before it — %PDMFCOL2 and %PDMFCOL1 payloads, trial
// JSON inside the envelope, and trial JSON with no envelope at all — is
// refused by name (retiredForm).
const (
	envelopeMagic   = "%PDMF1\n"
	envelopeTrailer = "\n%PDMF1 crc32c="
	envelopeLenTag  = " len="
	// envelopeLenDigits bounds the decimal length: what fits an int64.
	envelopeLenDigits = 18
	// envelopeTrailerMax bounds a trailer: 8 hex digits, the length and the
	// newline after the fixed part.
	envelopeTrailerMax = len(envelopeTrailer) + 8 + len(envelopeLenTag) + envelopeLenDigits + 1
)

var envelopeTable = crc32.MakeTable(crc32.Castagnoli)

// appendEnvelopeTrailer appends the trailer that seals payload.
func appendEnvelopeTrailer(buf, payload []byte) []byte {
	return fmt.Appendf(buf, "%s%08x%s%d\n", envelopeTrailer, crc32.Checksum(payload, envelopeTable), envelopeLenTag, len(payload))
}

// parseEnvelopeTrailer reads what follows envelopeTrailer to the end of the
// data: exactly what appendEnvelopeTrailer writes there, and no other
// spelling of the same numbers.
func parseEnvelopeTrailer(tail []byte) (sum uint32, n int, ok bool) {
	digits := len(tail) - 8 - len(envelopeLenTag) - 1
	if digits < 1 || digits > envelopeLenDigits || tail[len(tail)-1] != '\n' ||
		string(tail[8:8+len(envelopeLenTag)]) != envelopeLenTag {
		return 0, 0, false
	}
	for _, c := range tail[:8] {
		switch {
		case '0' <= c && c <= '9':
			sum = sum<<4 | uint32(c-'0')
		case 'a' <= c && c <= 'f':
			sum = sum<<4 | uint32(c-'a'+10)
		default:
			return 0, 0, false
		}
	}
	dec := tail[len(tail)-1-digits : len(tail)-1]
	if dec[0] == '0' && digits > 1 {
		return 0, 0, false
	}
	for _, c := range dec {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		n = n*10 + int(c-'0')
	}
	return sum, n, true
}

// retiredForm refuses, by name, bytes in a stored form this release no longer
// reads. The release before it reads them all and rewrites them in one
// `perfdmfd -fsck`.
func retiredForm(what string) error {
	return corruptf("%s is no longer read: rewrite the repository with `perfdmfd -fsck` of the previous release (and drain its hint queues) first", what)
}

// looksLikeJSON reports bytes that open a JSON object after optional
// whitespace: how trial JSON, once a stored form, is told from damage.
func looksLikeJSON(data []byte) bool {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	return len(trimmed) > 0 && trimmed[0] == '{'
}

// decodeEnvelope validates data and returns the enclosed payload. Any
// structural or checksum failure wraps ErrCorrupt.
func decodeEnvelope(data []byte) (payload []byte, err error) {
	if !bytes.HasPrefix(data, []byte(envelopeMagic)) {
		if looksLikeJSON(data) {
			return nil, retiredForm("trial JSON without an envelope")
		}
		return nil, fmt.Errorf("%w: no envelope magic", ErrCorrupt)
	}
	body := data[len(envelopeMagic):]
	i := bytes.LastIndex(body, []byte(envelopeTrailer))
	if i < 0 {
		return nil, fmt.Errorf("%w: envelope trailer missing (truncated file?)", ErrCorrupt)
	}
	payload = body[:i]
	sum, n, ok := parseEnvelopeTrailer(body[i+len(envelopeTrailer):])
	if !ok {
		return nil, fmt.Errorf("%w: malformed envelope trailer", ErrCorrupt)
	}
	if n != len(payload) {
		return nil, fmt.Errorf("%w: envelope length %d, payload has %d bytes", ErrCorrupt, n, len(payload))
	}
	if got := crc32.Checksum(payload, envelopeTable); got != sum {
		return nil, fmt.Errorf("%w: crc32c mismatch (stored %08x, computed %08x)", ErrCorrupt, sum, got)
	}
	return payload, nil
}

// EncodeTrial renders a trial in its encoded form: the columnar payload
// inside the checksummed envelope. The encoding is canonical — equal trials
// give equal bytes — so stored files, hint bodies and wire bodies of one
// trial are interchangeable.
func EncodeTrial(t *Trial) ([]byte, error) {
	c, err := ColumnsFromTrial(t)
	if err != nil {
		return nil, fmt.Errorf("perfdmf: encode trial: %w", err)
	}
	return c.encodeEnveloped()
}

// encodeEnveloped is EncodeTrial for a trial already pivoted: magic, payload
// and trailer in the one buffer the payload is sized for.
func (c *Columns) encodeEnveloped() ([]byte, error) {
	buf, err := c.encode(envelopeMagic, envelopeTrailerMax)
	if err != nil {
		return nil, fmt.Errorf("perfdmf: encode trial: %w", err)
	}
	return appendEnvelopeTrailer(buf, buf[len(envelopeMagic):]), nil
}

// decodeColumns is DecodeTrial for the repository, which keeps trials
// pivoted: see decodeColumnsPayload.
func decodeColumns(data []byte) (*Columns, error) {
	payload, err := decodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	return decodeColumnsPayload(payload)
}

// DecodeTrial is the inverse of EncodeTrial: it verifies the envelope
// checksum, decodes the payload and validates the result. It also accepts
// the previous payload, %PDMFCOL3. Checksum, structure and validation
// failures all wrap ErrCorrupt, as does the refusal of trial JSON, bare or
// inside the envelope.
func DecodeTrial(data []byte) (*Trial, error) {
	payload, err := decodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	return decodeTrialPayload(payload)
}

// IsEncodedTrial reports whether data starts like EncodeTrial output rather
// than like trial JSON. It is how a replayed hint body picks its media type.
func IsEncodedTrial(data []byte) bool {
	return bytes.HasPrefix(data, []byte(envelopeMagic))
}

// EncodedCoordinates reads the coordinates of an encoded trial from its
// payload header alone, checking nothing else; ok is false without one.
func EncodedCoordinates(data []byte) (app, experiment, trial string, ok bool) {
	if !IsEncodedTrial(data) {
		return "", "", "", false
	}
	return decodeTrialHeaderPayload(data[len(envelopeMagic):])
}
