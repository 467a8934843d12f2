// Package media provides the synthetic media substrate for MDAgent's demo
// applications: deterministic music files and slide decks with checksums
// (stand-ins for the paper's MP3s and OpenOffice Impress decks), playlists,
// and remote-URL streaming — the paper's fallback when data is absent at
// the destination: "If these files don't exist in the destination, they
// will be played remotely through URL in the original host" (§5).
package media

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
)

// File is one media payload with integrity metadata.
type File struct {
	Name     string
	Data     []byte
	Checksum string // hex SHA-256
}

// GenerateFile builds a deterministic file of the given size; the same
// (name, size, seed) always yields identical bytes, so checksums are
// stable across hosts and runs.
func GenerateFile(name string, size int64, seed byte) File {
	data := make([]byte, size)
	x := uint32(seed) | uint32(len(name))<<8 | 0x9e3779b9
	for i := range data {
		// xorshift32: cheap deterministic pseudo-noise.
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		data[i] = byte(x)
	}
	sum := sha256.Sum256(data)
	return File{Name: name, Data: data, Checksum: hex.EncodeToString(sum[:])}
}

// Size returns the payload length.
func (f File) Size() int64 { return int64(len(f.Data)) }

// URL renders the paper-style remote binding for a file on a host,
// e.g. "mdagent://hostA/media/blue-danube.mp3".
func URL(host, name string) string {
	return "mdagent://" + host + "/media/" + name
}

// ParseURL splits an mdagent:// media URL into host and file name.
func ParseURL(url string) (host, name string, err error) {
	rest, ok := strings.CutPrefix(url, "mdagent://")
	if !ok {
		return "", "", fmt.Errorf("media: not an mdagent URL: %q", url)
	}
	parts := strings.SplitN(rest, "/media/", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", fmt.Errorf("media: malformed media URL: %q", url)
	}
	return parts[0], parts[1], nil
}

// Library is a host's media collection.
type Library struct {
	host string
	mu   sync.RWMutex
	byN  map[string]File
}

// NewLibrary creates an empty library for a host.
func NewLibrary(host string) *Library {
	return &Library{host: host, byN: make(map[string]File)}
}

// Host returns the owning host id.
func (l *Library) Host() string { return l.host }

// Add stores a file.
func (l *Library) Add(f File) {
	l.mu.Lock()
	l.byN[f.Name] = f
	l.mu.Unlock()
}

// Get fetches a file by name.
func (l *Library) Get(name string) (File, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	f, ok := l.byN[name]
	return f, ok
}

// SlideDeck is a presentation deck: n slides of roughly equal size. The
// clone-dispatch demo carries decks to overflow rooms.
type SlideDeck struct {
	Title  string
	Slides []File
}

// GenerateDeck builds a deck of n slides totalling ~totalSize bytes.
func GenerateDeck(title string, n int, totalSize int64, seed byte) SlideDeck {
	if n < 1 {
		n = 1
	}
	per := totalSize / int64(n)
	deck := SlideDeck{Title: title}
	for i := 0; i < n; i++ {
		deck.Slides = append(deck.Slides, GenerateFile(
			fmt.Sprintf("%s-slide-%02d", title, i+1), per, seed+byte(i)))
	}
	return deck
}

// Size returns the deck's total byte size.
func (d SlideDeck) Size() int64 {
	var n int64
	for _, s := range d.Slides {
		n += s.Size()
	}
	return n
}
