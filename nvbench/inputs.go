package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"nvariant/internal/httpd"
	"nvariant/internal/vos"
)

// doc is one servable document with everything the load generator
// needs to request it and check the answer without allocating.
type doc struct {
	uri  string
	path string
	// body is the exact document the server must return.
	body []byte
	// req is the prebuilt GET request.
	req []byte
	// resp is the response a zero-cost server would send; the echo
	// listener answers with it.
	resp []byte
}

// inputs is everything a workload seed determines: the documents, the
// order engines request them in, and the mesh session keys.
type inputs struct {
	docs []doc
	// order is the seeded request sequence; request i asks for
	// docs[order[i%len(order)]].
	order []int32
	// keys are the mesh session keys; request i rides session
	// keyOrder[i%len(keyOrder)].
	keys     []string
	keyOrder []int32
	// full makes the generator compare bodies byte for byte, not
	// just their length.
	full bool
}

const (
	orderLen     = 4096
	sessionKeys  = 32
	largeDocs    = 32
	largeMinSize = 16 << 10
	largeMaxSize = 64 << 10
	largeDir     = "/var/www/large"
)

// smallURIs are the stock documents of vos.NewWorld no larger than
// 600 bytes.
var smallURIs = []string{"/index.html", "/about.html", "/logo.gif", "/styles.css", "/page1.html"}

// docAt returns the document of request i.
func (in *inputs) docAt(i int) *doc { return &in.docs[in.order[i%len(in.order)]] }

// makeInputs derives a workload's inputs from its seed alone.
func makeInputs(large bool, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{full: large}
	if large {
		// Sizes are stratified over the range, so every seed serves
		// the same mean size and runs compare across seeds.
		step := (largeMaxSize - largeMinSize) / largeDocs
		for i := 0; i < largeDocs; i++ {
			body := make([]byte, largeMinSize+i*step+rng.Intn(step+1))
			rng.Read(body)
			uri := "/large/d" + strconv.Itoa(i) + ".bin"
			in.docs = append(in.docs, newDoc(uri, body))
		}
	} else {
		world, err := vos.NewWorld()
		if err != nil {
			return nil, err
		}
		for _, uri := range smallURIs {
			body, err := world.FS.ReadFile("/var/www"+uri, vos.CredFor(vos.Root, 0))
			if err != nil {
				return nil, fmt.Errorf("stock document %s: %w", uri, err)
			}
			in.docs = append(in.docs, newDoc(uri, body))
		}
	}
	in.order = shuffled(rng, len(in.docs))
	for i := 0; i < sessionKeys; i++ {
		in.keys = append(in.keys, fmt.Sprintf("session-%016x", rng.Uint64()))
	}
	in.keyOrder = shuffled(rng, sessionKeys)
	return in, nil
}

// shuffled returns orderLen indexes below n made of back-to-back
// seeded permutations, so every index is used equally often.
func shuffled(rng *rand.Rand, n int) []int32 {
	out := make([]int32, 0, orderLen)
	for len(out) < orderLen {
		for _, i := range rng.Perm(n) {
			out = append(out, int32(i))
		}
	}
	return out[:orderLen]
}

func newDoc(uri string, body []byte) doc {
	return doc{
		uri:  uri,
		path: "/var/www" + uri,
		body: body,
		req:  httpd.AppendRequest(nil, uri),
		resp: httpd.AppendResponse(nil, 200, httpd.ContentTypeFor(uri), body),
	}
}

// install writes the workload's documents into a world before a group
// starts on it. Stock documents are already there.
func (in *inputs) install(w *vos.World) error {
	if !in.full {
		return nil
	}
	root := vos.CredFor(vos.Root, 0)
	if err := w.FS.MkdirAll(largeDir, 0755, root); err != nil {
		return err
	}
	for i := range in.docs {
		if err := w.FS.WriteFile(in.docs[i].path, in.docs[i].body, 0644, root); err != nil {
			return err
		}
	}
	return nil
}
