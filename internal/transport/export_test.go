package transport

import (
	"bytes"
	"encoding/json"
)

// ReplyCodec drives the production reply path without a socket, for the
// external BenchmarkReplyCodec (which needs serve's types, and serve
// imports this package). Encode is what a Server does to a handler's
// result on its way out: respond, then appendReplyFrame into the
// connection's reused buffer. Decode is what a Client does to the frame
// on its way to a caller's out: ReadFrame, route to the pending call,
// decodeBody.
type ReplyCodec struct {
	enc   replyEncoding
	out   []byte
	c     *Client
	reply chan *envelope
}

func NewReplyCodec() *ReplyCodec {
	return &ReplyCodec{c: &Client{pending: make(map[uint64]chan *envelope)}, reply: make(chan *envelope, 1)}
}

func (rc *ReplyCodec) Encode(result any) ([]byte, error) {
	var err error
	var resp Response
	rc.enc.scratch = rc.enc.scratch[:0]
	rc.enc.respond(&resp, 1, result, nil)
	rc.out, err = appendReplyFrame(rc.out[:0], &resp)
	return rc.out, err
}

func (rc *ReplyCodec) Decode(kind string, frame []byte, out any) error {
	payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		return err
	}
	rc.c.pending[1] = rc.reply
	if err := rc.c.route(payload); err != nil {
		return err
	}
	env := <-rc.reply
	return decodeBody(kind, env.Body, env.binary, out)
}

// EncodeJSON and DecodeJSON are the reference BenchmarkReplyCodec prices
// the wire against: the reply as a JSON body in a JSON Response envelope,
// the format wire v1 used. Neither end of the transport speaks it.
func (rc *ReplyCodec) EncodeJSON(result any) ([]byte, error) {
	body, err := json.Marshal(result)
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(&Response{ID: 1, OK: true, Body: body})
	if err != nil {
		return nil, err
	}
	b, at, _ := beginFrame(rc.out[:0], nil)
	b = append(b, payload...)
	rc.out = b
	return b, endFrame(b, at)
}

func (rc *ReplyCodec) DecodeJSON(frame []byte, out any) error {
	payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		return err
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return err
	}
	return json.Unmarshal(resp.Body, out)
}

// AppendRequestBody is what a Client does to an In on its way out, for
// the external BenchmarkRequestCodec; DecodeBody is the handler's half.
func AppendRequestBody(b []byte, in any) ([]byte, error) {
	return appendRequestBody(b, in)
}

// ParseRequest and SubRequests are the server's request decoders, for
// the external golden tests that check what a Client wrote.
func ParseRequest(payload []byte) (*Request, error) { return parseRequest(payload) }

func SubRequests(body []byte) ([]Request, error) { return parseSubRequests(nil, body) }
