package core

import (
	"context"

	"webrev/internal/crawler"
)

// Acquire drives the acquisition path the paper's system starts with: it
// crawls from seed under ctx, keeps the pages the crawler's topical filter
// accepted, and adapts them into pipeline Sources. The crawler's Report is
// always returned — even on cancellation, when the sources gathered so far
// accompany the context error — so callers see exactly what the crawl did
// instead of silently losing pages.
func Acquire(ctx context.Context, c *crawler.Crawler, seed string) ([]Source, *crawler.Report, error) {
	pages, rep, err := c.CrawlContext(ctx, seed)
	var sources []Source
	for _, p := range pages {
		if p.OnTopic {
			sources = append(sources, Source{Name: p.URL, HTML: p.HTML})
		}
	}
	return sources, rep, err
}
