"""Crawl-native file-format sources (beyond Parquet, which Ray Data
reads natively): WARC (ISO 28500) web-archive files."""

from pdf_extractor_ray.sources.warc import (  # noqa: F401
    WarcDatasink,
    WarcDatasource,
    iter_warc_records,
    read_warc,
    read_warc_pages,
    warc_record_bytes,
    write_warc,
    write_warc_dataset,
    write_warc_shards,
)
