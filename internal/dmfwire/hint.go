package dmfwire

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"net/url"
	"strings"
)

// Hinted handoff: when a write cannot reach one of its ring owners because
// the membership view says that owner is dead (or the attempt fails), the
// write still lands on the reachable owners, and one of them keeps a
// durable Hint — "this trial belongs to that peer" — plus the full trial
// body. A background loop replays hints to their owners once the view says
// they are alive again, then deletes the record. Hints are written through
// internal/vfs with the same write-aside/fsync/rename discipline as trial
// files, so a crash between accepting a hinted write and replaying it
// loses nothing.

// HintMagic opens the first line of an encoded hint record.
const HintMagic = "%DMFHINT1"

// HeaderHintFor is the HTTP request header a cluster client sets on an
// upload it could not deliver to the proper owner: the value is the owner
// peer's base URL, and the receiving daemon stores a hint alongside the
// trial so the handoff loop can complete the delivery later.
const HeaderHintFor = "Dmf-Hint-For"

// MaxHintBody bounds the embedded trial body.
const MaxHintBody = MaxTrialBody

// ErrHint marks a malformed hint record: every DecodeHint failure and
// every Hint.Validate failure wraps it.
var ErrHint = errors.New("malformed hint record")

// Hint is one durable hinted-handoff record: the owner that should hold
// the trial, the trial's coordinates, and the trial's body exactly as it
// would be posted to /api/v1/trials.
type Hint struct {
	// Owner is the base URL of the ring peer the trial belongs to.
	Owner string `json:"owner"`
	// App, Experiment and Trial are the trial coordinates, kept in the
	// header (escaped) so the handoff loop can key and dedupe records
	// without parsing bodies.
	App        string `json:"app"`
	Experiment string `json:"experiment"`
	Trial      string `json:"trial"`
	// Body is the trial in its encoded form (TrialContentType); records
	// written by older daemons hold trial JSON. Replay posts it to the
	// owner verbatim, picking the media type from the body's magic.
	Body []byte `json:"-"`
}

// Validate checks record invariants; failures wrap ErrHint.
func (h Hint) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("dmfwire: %w: %s", ErrHint, fmt.Sprintf(format, args...))
	}
	if h.Owner == "" {
		return fail("empty owner")
	}
	if strings.ContainsAny(h.Owner, " \t\r\n") {
		return fail("owner %q contains whitespace", h.Owner)
	}
	for _, f := range []struct{ name, val string }{
		{"app", h.App}, {"experiment", h.Experiment}, {"trial", h.Trial},
	} {
		if f.val == "" {
			return fail("empty %s", f.name)
		}
	}
	if len(h.Body) == 0 {
		return fail("empty body")
	}
	if len(h.Body) > MaxHintBody {
		return fail("body of %d bytes exceeds the %d cap", len(h.Body), MaxHintBody)
	}
	return nil
}

// hintEscape writes a coordinate into a header token. Trial coordinates
// may contain spaces and other bytes the space-separated header cannot
// carry; query-escaping is canonical (one escaped form per string), which
// DecodeHint relies on to keep decode→encode byte-identical.
func hintEscape(s string) string { return url.QueryEscape(s) }

// hintPayload is the checksummed portion: the header fields and the body,
// without the magic or the checksum itself.
func hintPayload(h Hint) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "owner=%s app=%s experiment=%s trial=%s len=%d\n",
		h.Owner, hintEscape(h.App), hintEscape(h.Experiment), hintEscape(h.Trial), len(h.Body))
	b.Write(h.Body)
	return b.Bytes()
}

// EncodeHint renders the record in its canonical form:
//
//	%DMFHINT1 owner=http://c:7360 app=lu experiment=strong+scaling trial=t1 len=123 crc32c=xxxxxxxx
//	{...123 bytes of trial JSON...}
//
// The CRC32-C covers the header fields and the body, so a record truncated
// by a crash mid-write is rejected at replay time rather than delivering a
// corrupt trial.
func EncodeHint(h Hint) ([]byte, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	payload := hintPayload(h)
	crc := crc32.Checksum(payload, ringCRCTable)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s owner=%s app=%s experiment=%s trial=%s len=%d crc32c=%08x\n",
		HintMagic, h.Owner, hintEscape(h.App), hintEscape(h.Experiment), hintEscape(h.Trial), len(h.Body), crc)
	b.Write(h.Body)
	return b.Bytes(), nil
}

// hintCoord parses one escaped coordinate token, insisting the escaping is
// canonical so that re-encoding reproduces the input bytes.
func hintCoord(tok, name string) (string, error) {
	esc, err := hintText.field(tok, name)
	if err != nil {
		return "", err
	}
	val, err := url.QueryUnescape(esc)
	if err != nil {
		return "", fmt.Errorf("dmfwire: %w: field %s: %v", ErrHint, name, err)
	}
	if hintEscape(val) != esc {
		return "", fmt.Errorf("dmfwire: %w: field %s: non-canonical escaping %q", ErrHint, name, esc)
	}
	return val, nil
}

// DecodeHint parses an encoded record, verifying the magic, the field
// layout, the declared body length, and the CRC32-C, then validating the
// result. Every failure wraps ErrHint. A successful decode re-encodes to
// the exact input bytes.
func DecodeHint(data []byte) (Hint, error) {
	toks, wantCRC, rest, err := hintText.header(data, 7, HintMagic)
	if err != nil {
		return Hint{}, err
	}
	var h Hint
	if h.Owner, err = hintText.field(toks[1], "owner"); err != nil {
		return Hint{}, err
	}
	if h.App, err = hintCoord(toks[2], "app"); err != nil {
		return Hint{}, err
	}
	if h.Experiment, err = hintCoord(toks[3], "experiment"); err != nil {
		return Hint{}, err
	}
	if h.Trial, err = hintCoord(toks[4], "trial"); err != nil {
		return Hint{}, err
	}
	n, err := hintText.uint(toks[5], "len")
	if err != nil {
		return Hint{}, err
	}
	if n > MaxHintBody {
		return Hint{}, fmt.Errorf("dmfwire: %w: declared body of %d bytes exceeds the %d cap", ErrHint, n, MaxHintBody)
	}
	if uint64(len(rest)) != n {
		return Hint{}, fmt.Errorf("dmfwire: %w: body is %d bytes, header declares %d", ErrHint, len(rest), n)
	}
	h.Body = rest
	if err := hintText.verify(wantCRC, hintPayload(h)); err != nil {
		return Hint{}, err
	}
	if err := h.Validate(); err != nil {
		return Hint{}, err
	}
	return h, nil
}
